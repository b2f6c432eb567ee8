open Types
module Pool = Parallel.Pool

(* Debug build switch: ABFT_BOUNDS_CHECK=1 routes every unsafe-access
   micro-kernel in this module through bounds-checked Array.get/set.
   The branch is taken once per panel/block, not per element, so the
   release path keeps its unchecked inner loops. *)
let bounds_checked =
  match Sys.getenv_opt "ABFT_BOUNDS_CHECK" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | _ -> false

(* Checksum panels carried through a fused kernel call. Each chain pair
   (f_a.(i), f_c.(i)) is one replica: the weighted checksum rows of
   op(a) and of c. The kernel applies the same update to the chain that
   it applies to c — the chain is algebraically d extra rows of a
   virtual [op(a); chk] stack — with chain i reading only chain i, so
   replica chains stay bitwise independent. [f_fresh], when set,
   receives the weighted reduction of the *finished* c (needs
   [f_weights]), computed while the output panel is still in cache. *)
type fuse = {
  f_a : Mat.t array;
  f_c : Mat.t array;
  f_fresh : Mat.t option;
  f_weights : Mat.t option;
}

(* op(a) dimensions without materializing the transpose. *)
let op_dims trans a =
  match trans with
  | No_trans -> (Mat.rows a, Mat.cols a)
  | Trans -> (Mat.cols a, Mat.rows a)

let op_get trans a i j =
  match trans with No_trans -> Mat.unsafe_get a i j | Trans -> Mat.unsafe_get a j i

let scale_in_place beta c =
  match beta with
  | 1. -> ()
  | 0. ->
      for j = 0 to Mat.cols c - 1 do
        for i = 0 to Mat.rows c - 1 do
          Mat.unsafe_set c i j 0.
        done
      done
  | b ->
      for j = 0 to Mat.cols c - 1 do
        for i = 0 to Mat.rows c - 1 do
          Mat.unsafe_set c i j (b *. Mat.unsafe_get c i j)
        done
      done

(* ------------------------------------------------------------------ *)
(* Seed reference kernels (naive triple loops).                        *)
(*                                                                     *)
(* Kept verbatim: they are the fallback for tiny operands and the     *)
(* reference the tiled kernels are property-tested against.            *)
(* ------------------------------------------------------------------ *)

let gemm_naive ?(transa = No_trans) ?(transb = No_trans) ?(alpha = 1.)
    ?(beta = 0.) a b c =
  let m, k = op_dims transa a in
  let kb, n = op_dims transb b in
  if k <> kb || Mat.rows c <> m || Mat.cols c <> n then
    Mat.dim_error "gemm" "op(a)=%dx%d op(b)=%dx%d c=%dx%d" m k kb n (Mat.rows c)
      (Mat.cols c);
  scale_in_place beta c;
  (* Loop order j-l-i keeps the innermost loop stride-1 in both [c] and
     (for transa = No_trans) [a]. *)
  for j = 0 to n - 1 do
    for l = 0 to k - 1 do
      let s = alpha *. op_get transb b l j in
      if s <> 0. then
        for i = 0 to m - 1 do
          Mat.unsafe_set c i j (Mat.unsafe_get c i j +. (s *. op_get transa a i l))
        done
    done
  done

let syrk_naive ?(trans = No_trans) ?(alpha = 1.) ?(beta = 0.) uplo a c =
  let n, k = op_dims trans a in
  if Mat.rows c <> n || Mat.cols c <> n then
    Mat.dim_error "syrk" "op(a)=%dx%d c=%dx%d" n k (Mat.rows c) (Mat.cols c);
  for j = 0 to n - 1 do
    let lo, hi = match uplo with Lower -> (j, n - 1) | Upper -> (0, j) in
    for i = lo to hi do
      let acc = ref 0. in
      for l = 0 to k - 1 do
        acc := !acc +. (op_get trans a i l *. op_get trans a j l)
      done;
      let prev = match beta with 0. -> 0. | b -> b *. Mat.unsafe_get c i j in
      Mat.unsafe_set c i j (prev +. (alpha *. !acc))
    done
  done

let check_trsm_shapes name side a b =
  let n = Mat.rows a in
  if Mat.cols a <> n then Mat.dim_error name "a not square: %dx%d" n (Mat.cols a);
  let need = match side with Left -> Mat.rows b | Right -> Mat.cols b in
  if need <> n then
    Mat.dim_error name "a=%dx%d b=%dx%d side=%a" n n (Mat.rows b) (Mat.cols b)
      pp_side side

(* trsm reduced to a trsv per column (Left) or per row (Right): clear,
   and exactly the dataflow the checksum update for TRSM relies on. *)
let trsm_naive ?(alpha = 1.) side uplo trans diag a b =
  check_trsm_shapes "trsm" side a b;
  if alpha <> 1. then scale_in_place alpha b;
  match side with
  | Left ->
      for j = 0 to Mat.cols b - 1 do
        let x = Mat.col b j in
        Blas2.trsv uplo trans diag a x;
        Mat.set_col b j x
      done
  | Right ->
      (* X * op(a) = b  ⇔  op(a)ᵀ * Xᵀ = bᵀ: solve a transposed trsv per
         row of b. *)
      for i = 0 to Mat.rows b - 1 do
        let x = Mat.row b i in
        Blas2.trsv uplo (flip_trans trans) diag a x;
        Mat.set_row b i x
      done

(* ------------------------------------------------------------------ *)
(* Cache-blocked tiled kernels with column-panel parallelism.          *)
(*                                                                     *)
(* Determinism contract: every element of the output is computed by    *)
(* exactly one pool task, and its reduction order over the inner       *)
(* dimension is fixed by the loop structure alone (ascending l),       *)
(* independent of panel boundaries — so results are bitwise identical  *)
(* for every pool size, which keeps the ABFT rounding thresholds       *)
(* valid across ABFT_DOMAINS settings.                                 *)
(* ------------------------------------------------------------------ *)

(* Block sizes, tuned per cache level: [kc] keeps one packed alpha·B
   block (kc × panel ≤ 64 KB) L1/L2-resident, [mc] sizes the a/c strip
   the saxpy micro-kernel streams (mc × kc of [a] ≈ 64 KB, L2), [jb] is
   the parallel work unit (narrow, so triangular workloads balance),
   and [nc_seq] widens sequential panels so each packed block and each
   kc×mc block of [a] is reused across more columns. *)
let kc = 64 (* inner-dimension block *)
let mc = 128 (* row block: one c/a strip of the micro-kernel *)
let jb = 16 (* column-panel width = one unit of parallel work *)
let nc_seq = 128 (* sequential column-panel width *)

(* Below [seq_cutoff] flops-ish the seed loops win (no blocking setup);
   above [par_cutoff] the batch is worth fanning out across domains. *)
let seq_cutoff = 32_768
let par_cutoff = 2_000_000

(* ------------------------------------------------------------------ *)
(* Fused-checksum helpers.                                             *)
(*                                                                     *)
(* A chain is (chk_a data, chk_c data, d) with both matrices d-row     *)
(* column-major; a fresh slot is (fresh data, weights data, d). Chain  *)
(* accumulation follows the exact ascending-l order of the naive       *)
(* separate-pass update (Abft.Update applies gemm_naive to the d×B     *)
(* checksum blocks), so carrying the chain through the fused kernel    *)
(* is bitwise identical to the separate pass.                          *)
(* ------------------------------------------------------------------ *)

(* chk_c(:,j) += sum_l (alpha · op(b)(l,j)) · chk_a(:,l) over columns
   [j0, j1), for every replica chain. The d running sums live in locals
   across the l sweep (one store per (j,r) instead of a load+store per
   l) — the additions happen in the same ascending-l order either way,
   so the result is bitwise unchanged. d = 2 is the deployed scheme and
   gets a branch-free specialization. *)
let fuse_accum ~alpha ~bget ~k ~chains j0 j1 =
  let one_chain (fad, fcd, d) =
    if d = 2 && not bounds_checked then
      for j = j0 to j1 - 1 do
        let cof = j * 2 in
        let acc0 = ref (Array.unsafe_get fcd cof)
        and acc1 = ref (Array.unsafe_get fcd (cof + 1)) in
        for l = 0 to k - 1 do
          let s = alpha *. bget l j in
          if s <> 0. then begin
            let aof = l * 2 in
            acc0 := !acc0 +. (s *. Array.unsafe_get fad aof);
            acc1 := !acc1 +. (s *. Array.unsafe_get fad (aof + 1))
          end
        done;
        Array.unsafe_set fcd cof !acc0;
        Array.unsafe_set fcd (cof + 1) !acc1
      done
    else
      for j = j0 to j1 - 1 do
        let cof = j * d in
        for l = 0 to k - 1 do
          let s = alpha *. bget l j in
          if s <> 0. then begin
            let aof = l * d in
            if bounds_checked then
              for r = 0 to d - 1 do
                fcd.(cof + r) <- fcd.(cof + r) +. (s *. fad.(aof + r))
              done
            else
              for r = 0 to d - 1 do
                Array.unsafe_set fcd (cof + r)
                  (Array.unsafe_get fcd (cof + r)
                  +. (s *. Array.unsafe_get fad (aof + r)))
              done
          end
        done
      done
  in
  match chains with
  | [| (fa0, fc0, 2); (fa1, fc1, 2) |] when not bounds_checked ->
      (* the deployed scheme (two replica chains, d = 2) in one sweep:
         the — possibly strided — b operand is read once per (j,l)
         instead of once per chain; each chain still accumulates in
         ascending-l order, so both stay bitwise identical to
         [one_chain] *)
      for j = j0 to j1 - 1 do
        let cof = j * 2 in
        let a00 = ref (Array.unsafe_get fc0 cof)
        and a01 = ref (Array.unsafe_get fc0 (cof + 1))
        and a10 = ref (Array.unsafe_get fc1 cof)
        and a11 = ref (Array.unsafe_get fc1 (cof + 1)) in
        for l = 0 to k - 1 do
          let s = alpha *. bget l j in
          if s <> 0. then begin
            let aof = l * 2 in
            a00 := !a00 +. (s *. Array.unsafe_get fa0 aof);
            a01 := !a01 +. (s *. Array.unsafe_get fa0 (aof + 1));
            a10 := !a10 +. (s *. Array.unsafe_get fa1 aof);
            a11 := !a11 +. (s *. Array.unsafe_get fa1 (aof + 1))
          end
        done;
        Array.unsafe_set fc0 cof !a00;
        Array.unsafe_set fc0 (cof + 1) !a01;
        Array.unsafe_set fc1 cof !a10;
        Array.unsafe_set fc1 (cof + 1) !a11
      done
  | _ -> Array.iter one_chain chains

(* fresh(r,j) = sum_i weights(i,r) · c(i,j) over columns [j0, j1):
   the verification-side reduction, run while the freshly written
   panel of c is still in cache. Ascending-i order — bitwise identical
   to a separate Checksum.recompute pass. *)
let fresh_reduce cd ~m ~fresh j0 j1 =
  match fresh with
  | None -> ()
  | Some (fd, wd, d) ->
      if d = 2 && not bounds_checked then
        (* both weight rows in one ascending-i sweep: the c column is
           read once instead of twice, and each accumulator still sums
           in the same order as the per-row loop below — bitwise
           unchanged, half the memory traffic *)
        for j = j0 to j1 - 1 do
          let cof = j * m in
          let acc0 = ref 0. and acc1 = ref 0. in
          for i = 0 to m - 1 do
            let ci = Array.unsafe_get cd (cof + i) in
            acc0 := !acc0 +. (Array.unsafe_get wd i *. ci);
            acc1 := !acc1 +. (Array.unsafe_get wd (m + i) *. ci)
          done;
          fd.(j * 2) <- !acc0;
          fd.((j * 2) + 1) <- !acc1
        done
      else
        for j = j0 to j1 - 1 do
          let cof = j * m in
          for r = 0 to d - 1 do
            let wof = r * m in
            let acc = ref 0. in
            if bounds_checked then
              for i = 0 to m - 1 do
                acc := !acc +. (wd.(wof + i) *. cd.(cof + i))
              done
            else
              for i = 0 to m - 1 do
                acc :=
                  !acc
                  +. (Array.unsafe_get wd (wof + i)
                     *. Array.unsafe_get cd (cof + i))
              done;
            fd.((j * d) + r) <- !acc
          done
        done

let chk_reduce ~weights c ~into =
  let m = Mat.rows c and n = Mat.cols c in
  let d = Mat.cols weights in
  if Mat.rows weights <> m || Mat.rows into <> d || Mat.cols into <> n then
    Mat.dim_error "chk_reduce" "weights=%dx%d c=%dx%d into=%dx%d"
      (Mat.rows weights) d m n (Mat.rows into) (Mat.cols into);
  fresh_reduce c.Mat.data ~m ~fresh:(Some (into.Mat.data, weights.Mat.data, d))
    0 n

(* Validate a [fuse] against the call's op(a)=m×k, c=m×n shapes, fold
   [beta] into the carried chains (they scale exactly as c does), and
   strip down to the raw arrays the micro-kernels consume. *)
let prep_fuse name ~beta ~m ~k ~n fused =
  match fused with
  | None -> ([||], None)
  | Some { f_a; f_c; f_fresh; f_weights } ->
      if Array.length f_a <> Array.length f_c then
        invalid_arg (name ^ ": fused chains need matching f_a/f_c");
      let chains =
        Array.init (Array.length f_a) (fun i ->
            let fa = f_a.(i) and fc = f_c.(i) in
            let d = Mat.rows fa in
            if Mat.rows fc <> d || Mat.cols fa <> k || Mat.cols fc <> n then
              Mat.dim_error name
                "fused chain %d: chk_a=%dx%d chk_c=%dx%d for op(a)=%dx%d \
                 c=%dx%d"
                i d (Mat.cols fa) (Mat.rows fc) (Mat.cols fc) m k m n;
            scale_in_place beta fc;
            (fa.Mat.data, fc.Mat.data, d))
      in
      let fresh =
        match f_fresh with
        | None -> None
        | Some f -> (
            match f_weights with
            | None -> invalid_arg (name ^ ": f_fresh requires f_weights")
            | Some w ->
                let d = Mat.rows f in
                if
                  Mat.cols f <> n || Mat.rows w <> m || Mat.cols w <> d
                then
                  Mat.dim_error name "fused fresh=%dx%d weights=%dx%d c=%dx%d"
                    d (Mat.cols f) (Mat.rows w) (Mat.cols w) m n;
                Some (f.Mat.data, w.Mat.data, d))
      in
      (chains, fresh)

(* Fan a column range out across the pool in fixed-width panels. The
   panel grid depends only on [n], never on the pool, and tasks claim
   panels dynamically so triangular workloads balance. *)
let over_panels pool ~parallel ~n body =
  if not parallel then body 0 n
  else begin
    let npanels = (n + jb - 1) / jb in
    Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:npanels (fun p ->
        body (p * jb) (min n ((p * jb) + jb)))
  end

(* c <- c + alpha * a * B over columns [j0, j1), a m×k untransposed,
   B supplied by [bget l j]. Each kc-block of alpha·B is packed into a
   contiguous panel buffer first, so the saxpy micro-kernel streams
   [a] and [c] at stride 1 and reads its scalars from a hot L1 strip;
   one kc×mc block of [a] is then reused across the whole panel.
   Checksum [chains] ride each packed block as d extra rows of [a]
   (one pass per block, outside the mc row loop), and [fresh] reduces
   the finished panel columns while they are still in cache. *)
let gemm_panel_n ~alpha ad cd ~m ~k ~bget ~chains ~fresh j0 j1 =
  let w = j1 - j0 in
  let bp = Array.make (kc * w) 0. in
  let nlb = (k + kc - 1) / kc in
  let nib = (m + mc - 1) / mc in
  for lb = 0 to nlb - 1 do
    let l0 = lb * kc and l1 = min k ((lb * kc) + kc) in
    let kw = l1 - l0 in
    (* pack alpha·op(b)[l0..l1) × [j0..j1), column-major in the block *)
    if bounds_checked then
      for j = j0 to j1 - 1 do
        let off = (j - j0) * kw in
        for l = l0 to l1 - 1 do
          bp.(off + l - l0) <- alpha *. bget l j
        done
      done
    else
      for j = j0 to j1 - 1 do
        let off = (j - j0) * kw in
        for l = l0 to l1 - 1 do
          Array.unsafe_set bp (off + l - l0) (alpha *. bget l j)
        done
      done;
    for ib = 0 to nib - 1 do
      let i0 = ib * mc and i1 = min m ((ib * mc) + mc) in
      for j = j0 to j1 - 1 do
        let cof = j * m in
        let boff = (j - j0) * kw in
        if bounds_checked then
          for l = 0 to kw - 1 do
            let s = bp.(boff + l) in
            if s <> 0. then begin
              let aof = (l0 + l) * m in
              for i = i0 to i1 - 1 do
                cd.(cof + i) <- cd.(cof + i) +. (s *. ad.(aof + i))
              done
            end
          done
        else
          for l = 0 to kw - 1 do
            let s = Array.unsafe_get bp (boff + l) in
            if s <> 0. then begin
              let aof = (l0 + l) * m in
              for i = i0 to i1 - 1 do
                Array.unsafe_set cd (cof + i)
                  (Array.unsafe_get cd (cof + i)
                  +. (s *. Array.unsafe_get ad (aof + i)))
              done
            end
          done
      done
    done;
    (* carried chains: the same packed scalars applied to the d-row
       checksum stack; lb ascends, so the global accumulation order
       over l matches the separate-pass update exactly. Running sums
       stay in locals across the kw sweep (stores once per (j,r), not
       per l) — same ascending-l additions, bitwise unchanged. *)
    Array.iter
      (fun (fad, fcd, d) ->
        if d = 2 && not bounds_checked then
          for j = j0 to j1 - 1 do
            let boff = (j - j0) * kw in
            let cof = j * 2 in
            let acc0 = ref (Array.unsafe_get fcd cof)
            and acc1 = ref (Array.unsafe_get fcd (cof + 1)) in
            for l = 0 to kw - 1 do
              let s = Array.unsafe_get bp (boff + l) in
              if s <> 0. then begin
                let aof = (l0 + l) * 2 in
                acc0 := !acc0 +. (s *. Array.unsafe_get fad aof);
                acc1 := !acc1 +. (s *. Array.unsafe_get fad (aof + 1))
              end
            done;
            Array.unsafe_set fcd cof !acc0;
            Array.unsafe_set fcd (cof + 1) !acc1
          done
        else
          for j = j0 to j1 - 1 do
            let boff = (j - j0) * kw in
            let cof = j * d in
            for l = 0 to kw - 1 do
              let s =
                if bounds_checked then bp.(boff + l)
                else Array.unsafe_get bp (boff + l)
              in
              if s <> 0. then begin
                let aof = (l0 + l) * d in
                if bounds_checked then
                  for r = 0 to d - 1 do
                    fcd.(cof + r) <- fcd.(cof + r) +. (s *. fad.(aof + r))
                  done
                else
                  for r = 0 to d - 1 do
                    Array.unsafe_set fcd (cof + r)
                      (Array.unsafe_get fcd (cof + r)
                      +. (s *. Array.unsafe_get fad (aof + r)))
                  done
              end
            done
          done)
      chains
  done;
  fresh_reduce cd ~m ~fresh j0 j1

(* c <- c + alpha * aᵀ * b over columns [j0, j1), a physical k×m,
   b physical k×n untransposed: stride-1 dot products; the b panel
   stays in cache across the whole i sweep. *)
let gemm_panel_tn ~alpha ad bd cd ~m ~k j0 j1 =
  for i = 0 to m - 1 do
    let aof = i * k in
    for j = j0 to j1 - 1 do
      let bof = j * k in
      let acc = ref 0. in
      for l = 0 to k - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get ad (aof + l) *. Array.unsafe_get bd (bof + l))
      done;
      let ci = (j * m) + i in
      Array.unsafe_set cd ci (Array.unsafe_get cd ci +. (alpha *. !acc))
    done
  done

let resolve_pool ~work = function
  | Some p -> if work >= par_cutoff && Pool.size p > 1 then Some p else None
  | None ->
      if work >= par_cutoff then begin
        let p = Pool.default () in
        if Pool.size p > 1 then Some p else None
      end
      else None

let gemm ?pool ?(transa = No_trans) ?(transb = No_trans) ?(alpha = 1.)
    ?(beta = 0.) ?fused a b c =
  let m, k = op_dims transa a in
  let kb, n = op_dims transb b in
  if k <> kb || Mat.rows c <> m || Mat.cols c <> n then
    Mat.dim_error "gemm" "op(a)=%dx%d op(b)=%dx%d c=%dx%d" m k kb n (Mat.rows c)
      (Mat.cols c);
  let chains, fresh = prep_fuse "gemm" ~beta ~m ~k ~n fused in
  let work = m * n * k in
  if work < seq_cutoff || (transa = Trans && transb = Trans) then begin
    gemm_naive ~transa ~transb ~alpha ~beta a b c;
    (* tiny-operand fallback: chains and fresh still applied, in the
       same ascending-l / ascending-i orders as the fused panels *)
    if Array.length chains > 0 then
      fuse_accum ~alpha ~bget:(fun l j -> op_get transb b l j) ~k ~chains 0 n;
    fresh_reduce c.Mat.data ~m ~fresh 0 n
  end
  else begin
    scale_in_place beta c;
    let ad = a.Mat.data and bd = b.Mat.data and cd = c.Mat.data in
    let pool = resolve_pool ~work pool in
    let parallel = pool <> None in
    let run body =
      match pool with
      | Some p -> over_panels p ~parallel ~n body
      | None ->
          (* sequential: wider panels amortize packing and a-block
             reloads; per-element order is unchanged (see contract) *)
          let np = (n + nc_seq - 1) / nc_seq in
          for p = 0 to np - 1 do
            body (p * nc_seq) (min n ((p * nc_seq) + nc_seq))
          done
    in
    match transa with
    | No_trans ->
        let bget =
          match transb with
          | No_trans ->
              if bounds_checked then fun l j -> bd.((j * k) + l)
              else fun l j -> Array.unsafe_get bd ((j * k) + l)
          | Trans ->
              if bounds_checked then fun l j -> bd.((l * n) + j)
              else fun l j -> Array.unsafe_get bd ((l * n) + j)
        in
        run (gemm_panel_n ~alpha ad cd ~m ~k ~bget ~chains ~fresh)
    | Trans ->
        (* transb = Trans was dispatched to the naive path above. *)
        run (fun j0 j1 ->
            gemm_panel_tn ~alpha ad bd cd ~m ~k j0 j1;
            if Array.length chains > 0 then
              fuse_accum ~alpha
                ~bget:(fun l j -> Array.unsafe_get bd ((j * k) + l))
                ~k ~chains j0 j1;
            fresh_reduce cd ~m ~fresh j0 j1)
  end

let gemm_alloc ?pool ?(transa = No_trans) ?(transb = No_trans) ?(alpha = 1.) a b
    =
  let m, _ = op_dims transa a in
  let _, n = op_dims transb b in
  let c = Mat.create m n in
  gemm ?pool ~transa ~transb ~alpha ~beta:0. a b c;
  c

(* Scale the [uplo]-triangle segment of column [j] — syrk must leave
   the opposite strict triangle untouched. *)
let syrk_prescale ~beta cd ~n uplo j =
  let lo, hi = match uplo with Lower -> (j, n - 1) | Upper -> (0, j) in
  let cof = j * n in
  match beta with
  | 1. -> ()
  | 0. ->
      for i = lo to hi do
        Array.unsafe_set cd (cof + i) 0.
      done
  | b ->
      for i = lo to hi do
        Array.unsafe_set cd (cof + i) (b *. Array.unsafe_get cd (cof + i))
      done

let syrk ?pool ?(trans = No_trans) ?(alpha = 1.) ?(beta = 0.) ?fused uplo a c =
  let n, k = op_dims trans a in
  if Mat.rows c <> n || Mat.cols c <> n then
    Mat.dim_error "syrk" "op(a)=%dx%d c=%dx%d" n k (Mat.rows c) (Mat.cols c);
  (match fused with
  | Some { f_fresh = Some _; _ } ->
      (* c only materializes one triangle, so the fresh reduction must
         mirror-read it — a cross-panel access the column-parallel
         kernel cannot do race-free. *)
      invalid_arg "Blas3.syrk: f_fresh unsupported"
  | _ -> ());
  let chains, _ = prep_fuse "syrk" ~beta ~m:n ~k ~n fused in
  (* The carried chains track the full symmetric product (chk_c +=
     alpha · chk_a · op(a)ᵀ over every column), exactly like the
     separate-pass Abft.Update.syrk rule, even though c itself only
     stores the [uplo] triangle. *)
  let chain_bget =
    match trans with
    | No_trans -> fun l j -> Mat.unsafe_get a j l
    | Trans -> fun l j -> Mat.unsafe_get a l j
  in
  let work = n * n * k / 2 in
  if work < seq_cutoff then begin
    syrk_naive ~trans ~alpha ~beta uplo a c;
    if Array.length chains > 0 then
      fuse_accum ~alpha ~bget:chain_bget ~k ~chains 0 n
  end
  else begin
    let ad = a.Mat.data and cd = c.Mat.data in
    let pool = resolve_pool ~work pool in
    let run body =
      match pool with
      | Some p -> over_panels p ~parallel:true ~n body
      | None -> body 0 n
    in
    match trans with
    | No_trans ->
        (* Saxpy form: c(:,j) += (alpha·a(j,l)) · a(:,l), stride-1, one
           kc-block of [a]'s columns reused across the panel. *)
        run (fun j0 j1 ->
            for j = j0 to j1 - 1 do
              syrk_prescale ~beta cd ~n uplo j
            done;
            let nlb = (k + kc - 1) / kc in
            for lb = 0 to nlb - 1 do
              let l0 = lb * kc and l1 = min k ((lb * kc) + kc) in
              for j = j0 to j1 - 1 do
                let lo, hi =
                  match uplo with Lower -> (j, n - 1) | Upper -> (0, j)
                in
                let cof = j * n in
                for l = l0 to l1 - 1 do
                  let s = alpha *. Array.unsafe_get ad ((l * n) + j) in
                  if s <> 0. then begin
                    let aof = l * n in
                    for i = lo to hi do
                      Array.unsafe_set cd (cof + i)
                        (Array.unsafe_get cd (cof + i)
                        +. (s *. Array.unsafe_get ad (aof + i)))
                    done
                  end
                done
              done
            done;
            if Array.length chains > 0 then
              fuse_accum ~alpha ~bget:chain_bget ~k ~chains j0 j1)
    | Trans ->
        (* Dot form over a's stride-1 columns; accumulation order
           matches the seed kernel exactly. *)
        run (fun j0 j1 ->
            for j = j0 to j1 - 1 do
              let lo, hi =
                match uplo with Lower -> (j, n - 1) | Upper -> (0, j)
              in
              let bof = j * k in
              for i = lo to hi do
                let aof = i * k in
                let acc = ref 0. in
                for l = 0 to k - 1 do
                  acc :=
                    !acc
                    +. (Array.unsafe_get ad (aof + l)
                       *. Array.unsafe_get ad (bof + l))
                done;
                let ci = (j * n) + i in
                let prev =
                  match beta with
                  | 0. -> 0.
                  | b -> b *. Array.unsafe_get cd ci
                in
                Array.unsafe_set cd ci (prev +. (alpha *. !acc))
              done
            done;
            if Array.length chains > 0 then
              fuse_accum ~alpha ~bget:chain_bget ~k ~chains j0 j1)
  end

(* Right-side solve X · op(A) = B as a forward/backward column sweep:
   column j of X is B(:,j) minus saxpy contributions of the already
   solved columns, then a divide by the diagonal. All accesses are
   stride-1 down b's columns (the seed extracted strided rows), and
   rows of B are independent, so the sweep parallelizes by row block
   with per-element operation order unchanged. *)
let trsm_right_blocked ~diag a b =
  let n = Mat.rows a and m = Mat.rows b in
  let ad = a.Mat.data and bd = b.Mat.data in
  (* op(A)[c][j]; [trans] decides the access, [uplo] only the sweep
     direction (structural zeros are never read). *)
  fun ~trans ~upper_op ~r0 ~r1 ->
    let coef c j =
      match trans with
      | No_trans -> Array.unsafe_get ad ((j * n) + c)
      | Trans -> Array.unsafe_get ad ((c * n) + j)
    in
    let solve_col j c_lo c_hi =
      let cof = j * m in
      for c = c_lo to c_hi do
        if c <> j then begin
          let s = coef c j in
          if s <> 0. then begin
            let xof = c * m in
            for i = r0 to r1 - 1 do
              Array.unsafe_set bd (cof + i)
                (Array.unsafe_get bd (cof + i)
                -. (s *. Array.unsafe_get bd (xof + i)))
            done
          end
        end
      done;
      match diag with
      | Unit_diag -> ()
      | Non_unit_diag ->
          let d = coef j j in
          if Float.equal d 0. then failwith "trsm: zero pivot";
          for i = r0 to r1 - 1 do
            Array.unsafe_set bd (cof + i) (Array.unsafe_get bd (cof + i) /. d)
          done
    in
    if upper_op then
      for j = 0 to n - 1 do
        solve_col j 0 (j - 1)
      done
    else
      for j = n - 1 downto 0 do
        solve_col j (j + 1) (n - 1)
      done

let trsm ?pool ?(alpha = 1.) ?fused side uplo trans diag a b =
  check_trsm_shapes "trsm" side a b;
  let n = Mat.rows a in
  (* Fused solve: the carried checksum of b satisfies the same
     right-side system (chk(X)·op(a) = chk(alpha·b) row-wise), so each
     replica chain is co-solved against the still-hot factor. The d-row
     chains go through the seed sweep — the same path the separate-pass
     Abft.Update.trsm takes for them, so fused and separate chains stay
     bitwise identical. Left-side solves mix rows of b and have no
     row-checksum carry rule, hence no fused mode. *)
  let chains =
    match fused with
    | None -> [||]
    | Some fz ->
        if side = Left then
          invalid_arg "Blas3.trsm: fused mode supports Right side only";
        if Array.length fz.f_a <> 0 then
          invalid_arg "Blas3.trsm: fused solve carries f_c only (no f_a)";
        if fz.f_fresh <> None then
          invalid_arg "Blas3.trsm: f_fresh unsupported; reduce after the solve";
        Array.iter
          (fun fc ->
            if Mat.cols fc <> n then
              Mat.dim_error "trsm" "fused chain %dx%d against a=%dx%d"
                (Mat.rows fc) (Mat.cols fc) n n)
          fz.f_c;
        fz.f_c
  in
  let solve_chains () =
    Array.iter (fun fc -> trsm_naive ~alpha Right uplo trans diag a fc) chains
  in
  let m, ncols = (Mat.rows b, Mat.cols b) in
  let work = m * ncols * n / 2 in
  if work < seq_cutoff then begin
    trsm_naive ~alpha side uplo trans diag a b;
    solve_chains ()
  end
  else begin
    if alpha <> 1. then scale_in_place alpha b;
    let pool = resolve_pool ~work pool in
    (match side with
    | Left ->
        (* Columns of b are independent triangular solves. *)
        let solve_cols j0 j1 =
          for j = j0 to j1 - 1 do
            let x = Mat.col b j in
            Blas2.trsv uplo trans diag a x;
            Mat.set_col b j x
          done
        in
        (match pool with
        | Some p -> Pool.parallel_chunks p ~lo:0 ~hi:ncols (fun ~lo ~hi -> solve_cols lo hi)
        | None -> solve_cols 0 ncols)
    | Right ->
        let upper_op =
          match (uplo, trans) with
          | Lower, Trans | Upper, No_trans -> true
          | Lower, No_trans | Upper, Trans -> false
        in
        let sweep = trsm_right_blocked ~diag a b in
        (match pool with
        | Some p ->
            Pool.parallel_chunks p ~lo:0 ~hi:m (fun ~lo ~hi ->
                sweep ~trans ~upper_op ~r0:lo ~r1:hi)
        | None -> sweep ~trans ~upper_op ~r0:0 ~r1:m));
    solve_chains ()
  end

(* b[bo+i] += t · a[ao+i] and Σ a[ao+i] · b[bo+i], over i in [lo, hi) *)
let seg_axpy t ad ao bd bo lo hi =
  if bounds_checked then
    for i = lo to hi - 1 do
      bd.(bo + i) <- bd.(bo + i) +. (t *. ad.(ao + i))
    done
  else
    for i = lo to hi - 1 do
      Array.unsafe_set bd (bo + i)
        (Array.unsafe_get bd (bo + i) +. (t *. Array.unsafe_get ad (ao + i)))
    done

let seg_dot acc ad ao bd bo lo hi =
  let s = ref acc in
  if bounds_checked then
    for i = lo to hi - 1 do
      s := !s +. (ad.(ao + i) *. bd.(bo + i))
    done
  else
    for i = lo to hi - 1 do
      s := !s +. (Array.unsafe_get ad (ao + i) *. Array.unsafe_get bd (bo + i))
    done;
  !s

(* Left-side triangular product b <- op(a)·b, in place, all columns of
   b per column of a: each column of the triangle is read once (it
   stays in cache across b's columns), and every access runs down a
   column of a and of b, stride 1. op(a) = a takes the axpy form,
   op(a) = aᵀ the dot form; the sweep direction leaves every b entry
   unread once it is overwritten. *)
let trmm_left uplo trans diag a b =
  let n = Mat.rows a and ncols = Mat.cols b in
  let ad = a.Mat.data and bd = b.Mat.data in
  let dg k =
    match diag with Unit_diag -> 1. | Non_unit_diag -> ad.((k * n) + k)
  in
  let step k =
    let ak = k * n in
    for c = 0 to ncols - 1 do
      let bo = c * n in
      match (uplo, trans) with
      | Lower, No_trans ->
          let t = bd.(bo + k) in
          bd.(bo + k) <- dg k *. t;
          seg_axpy t ad ak bd bo (k + 1) n
      | Upper, No_trans ->
          let t = bd.(bo + k) in
          seg_axpy t ad ak bd bo 0 k;
          bd.(bo + k) <- dg k *. t
      | Lower, Trans ->
          bd.(bo + k) <- seg_dot (dg k *. bd.(bo + k)) ad ak bd bo (k + 1) n
      | Upper, Trans ->
          bd.(bo + k) <- seg_dot (dg k *. bd.(bo + k)) ad ak bd bo 0 k
    done
  in
  match (uplo, trans) with
  | Lower, No_trans | Upper, Trans ->
      for k = n - 1 downto 0 do
        step k
      done
  | Upper, No_trans | Lower, Trans ->
      for k = 0 to n - 1 do
        step k
      done

let trmm ?(alpha = 1.) side uplo trans diag a b =
  check_trsm_shapes "trmm" side a b;
  (match side with
  | Left -> trmm_left uplo trans diag a b
  | Right ->
      (* b·op(a) = (op(a)ᵀ·bᵀ)ᵀ *)
      let bt = Mat.transpose b in
      trmm_left uplo (flip_trans trans) diag a bt;
      Mat.blit ~src:(Mat.transpose bt) ~dst:b ~row:0 ~col:0);
  if alpha <> 1. then scale_in_place alpha b

let symm ?pool ?(alpha = 1.) ?(beta = 0.) side uplo a b c =
  let n = Mat.rows a in
  if Mat.cols a <> n then Mat.dim_error "symm" "a not square: %dx%d" n (Mat.cols a);
  let full = Mat.symmetrize_from uplo a in
  match side with
  | Left ->
      if Mat.rows b <> n || Mat.rows c <> n || Mat.cols c <> Mat.cols b then
        Mat.dim_error "symm" "a=%dx%d b=%dx%d c=%dx%d" n n (Mat.rows b)
          (Mat.cols b) (Mat.rows c) (Mat.cols c);
      gemm ?pool ~alpha ~beta full b c
  | Right ->
      if Mat.cols b <> n || Mat.cols c <> n || Mat.rows c <> Mat.rows b then
        Mat.dim_error "symm" "a=%dx%d b=%dx%d c=%dx%d" n n (Mat.rows b)
          (Mat.cols b) (Mat.rows c) (Mat.cols c);
      gemm ?pool ~alpha ~beta b full c
