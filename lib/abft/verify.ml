open Matrix

type source = Located | Reconstructed

type correction = {
  row : int;
  col : int;
  wrong : float;
  fixed : float;
  source : source;
}

type outcome =
  | Clean
  | Corrected of correction list
  | Checksum_repaired of { cells : int; corrections : correction list }
  | Uncorrectable of string

let default_tol = 1e-8

let max_correctable_per_column ~d =
  if d >= 4 then 2 else if d >= 2 then 1 else 0

(* Per-row thresholds: row r of the checksum carries weights (i+1)^r,
   so its magnitudes — and its rounding noise — grow with r. Comparing
   every row against one global threshold either drowns row 0 or
   over-trusts row 3. *)
let row_thresholds ~tol stored fresh =
  let d = Mat.rows stored in
  Array.init d (fun r ->
      let m = ref 1. in
      for i = 0 to Mat.cols stored - 1 do
        m := Float.max !m (abs_float (Mat.get stored r i));
        m := Float.max !m (abs_float (Mat.get fresh r i))
      done;
      tol *. !m)

let bad_columns ~thr delta =
  let d = Mat.rows delta and bsz = Mat.cols delta in
  let cols = ref [] in
  for i = bsz - 1 downto 0 do
    let bad = ref false in
    for r = 0 to d - 1 do
      let v = Mat.get delta r i in
      (* A non-finite discrepancy (the tile caught an Inf/NaN bit flip)
         fails every > comparison; it must still count as bad. *)
      if (not (Float.is_finite v)) || abs_float v > thr.(r) then bad := true
    done;
    if !bad then cols := i :: !cols
  done;
  !cols

(* Corruption that overwhelms floating point — Inf/NaN, or a finite
   value so large that subtracting the located delta would destroy
   every mantissa bit of the true value (exponent-field flips routinely
   produce ~1e150) — defeats delta-based correction. If the column
   contains exactly one such element its row is self-evident and the
   true value is recoverable from the plain-sum checksum row by
   reconstruction: a_true = chk1 - sum of the column's other elements. *)
let anchor_magnitude = 1e30

let is_anchor v = (not (Float.is_finite v)) || abs_float v >= anchor_magnitude

let anchored_fit ~stored tile i =
  let b = Mat.rows tile in
  let bad = ref [] in
  for r = b - 1 downto 0 do
    if is_anchor (Mat.get tile r i) then bad := r :: !bad
  done;
  match !bad with
  | [ row ] ->
      let others = ref 0. in
      for r = 0 to b - 1 do
        if r <> row then others := !others +. Mat.get tile r i
      done;
      let truth = Mat.get stored 0 i -. !others in
      Ok (row, truth)
  | [] -> Error "no overwhelming element to anchor on"
  | l ->
      Error
        (Printf.sprintf "%d overwhelming elements in one column"
           (List.length l))

(* Attempt a single-error explanation of column [i]: one error e at row
   w-1 produces delta_r = e * w^r. Returns the (row, magnitude) or an
   explanation of why the pattern does not fit. *)
let single_fit ~b ~thr delta i =
  let d0 = Mat.get delta 0 i in
  if abs_float d0 <= thr.(0) then
    Error "row-0 discrepancy below threshold (cancelling errors?)"
  else begin
    let d = Mat.rows delta in
    let locator = Mat.get delta 1 i /. d0 in
    let w = Float.round locator in
    let row = int_of_float w - 1 in
    if row < 0 || row >= b || abs_float (locator -. w) > 1e-3 then
      Error
        (Printf.sprintf "locator %.6g is not a valid row index" locator)
    else begin
      (* Rows >= 2 must agree with the single-error model. *)
      let consistent = ref true in
      for r = 2 to d - 1 do
        let expect = d0 *. (w ** float_of_int r) in
        let got = Mat.get delta r i in
        let slack = Float.max thr.(r) (1e-6 *. abs_float expect) in
        if abs_float (got -. expect) > slack then consistent := false
      done;
      if !consistent then Ok (row, d0)
      else Error "higher checksum rows disagree with a single-error fit"
    end
  end

(* Attempt a two-error explanation using four power sums
   m_r = e1*w1^r + e2*w2^r (r = 0..3): classic Prony/BCH decoding. The
   locations are the roots of w^2 - s*w + p with
   s = (m0*m3 - m1*m2) / (m0*m2 - m1^2),
   p = (m1*m3 - m2^2) / (m0*m2 - m1^2). *)
let double_fit ~b ~thr delta i =
  if Mat.rows delta < 4 then
    Error "two-error correction needs d >= 4 checksum rows"
  else begin
    let m0 = Mat.get delta 0 i
    and m1 = Mat.get delta 1 i
    and m2 = Mat.get delta 2 i
    and m3 = Mat.get delta 3 i in
    let den = (m0 *. m2) -. (m1 *. m1) in
    let den_scale = Float.max (thr.(0) *. thr.(2)) (thr.(1) *. thr.(1)) in
    if abs_float den <= 100. *. den_scale then
      Error "degenerate power sums: not a two-error pattern"
    else begin
      let s = ((m0 *. m3) -. (m1 *. m2)) /. den in
      let p = ((m1 *. m3) -. (m2 *. m2)) /. den in
      let disc = (s *. s) -. (4. *. p) in
      if disc < 0. then Error "complex locator roots"
      else begin
        let sq = sqrt disc in
        let w1 = Float.round ((s +. sq) /. 2.) in
        let w2 = Float.round ((s -. sq) /. 2.) in
        let ok_root w raw =
          w >= 1.
          && w <= float_of_int b
          && abs_float (raw -. w) <= 0.02
        in
        if
          (not (ok_root w1 ((s +. sq) /. 2.)))
          || (not (ok_root w2 ((s -. sq) /. 2.)))
          || Int.equal (int_of_float w1) (int_of_float w2)
        then Error "locator roots are not two distinct row indices"
        else begin
          let e2 = (m1 -. (w1 *. m0)) /. (w2 -. w1) in
          let e1 = m0 -. e2 in
          Ok ((int_of_float w1 - 1, e1), (int_of_float w2 - 1, e2))
        end
      end
    end
  end

(* Locate-and-patch against the (already trusted) primary copy.
   Factored out so the cross-check below can retry it with either
   replica promoted to primary. *)
let verify_core ?pool ~tol chk tile =
  let stored = Checksum.matrix chk in
  let fresh = Checksum.recompute ?pool chk tile in
  let delta = Mat.sub_mat fresh stored in
  let thr = row_thresholds ~tol stored fresh in
  match bad_columns ~thr delta with
  | [] -> Clean
  | cols ->
      let d = Checksum.d chk in
      if d < 2 then
        Uncorrectable "single checksum row: error detected but not locatable"
      else begin
        let b = Mat.rows tile in
        let failure = ref None in
        (* write the corrected value directly: for non-finite wrongs,
           wrong - magnitude would be NaN *)
        let apply_value i row fixed source acc =
          let wrong = Mat.get tile row i in
          Mat.set tile row i fixed;
          { row; col = i; wrong; fixed; source } :: acc
        in
        let apply i row magnitude acc =
          apply_value i row (Mat.get tile row i -. magnitude) Located acc
        in
        let column_has_anchor i =
          let bad = ref false in
          for r = 0 to b - 1 do
            if is_anchor (Mat.get tile r i) then bad := true
          done;
          !bad
        in
        let fixes =
          List.fold_left
            (fun acc i ->
              match !failure with
              | Some _ -> acc
              | None when column_has_anchor i -> (
                  match anchored_fit ~stored tile i with
                  | Ok (row, truth) -> apply_value i row truth Reconstructed acc
                  | Error msg ->
                      failure := Some (Printf.sprintf "column %d: %s" i msg);
                      acc)
              | None -> (
                  match single_fit ~b ~thr delta i with
                  | Ok (row, e) -> apply i row e acc
                  | Error single_msg -> (
                      if d < 4 then begin
                        failure :=
                          Some (Printf.sprintf "column %d: %s" i single_msg);
                        acc
                      end
                      else
                        match double_fit ~b ~thr delta i with
                        | Ok ((r1, e1), (r2, e2)) ->
                            apply i r2 e2 (apply i r1 e1 acc)
                        | Error double_msg ->
                            failure :=
                              Some
                                (Printf.sprintf "column %d: %s; %s" i
                                   single_msg double_msg);
                            acc)))
            [] cols
          |> List.rev
        in
        match !failure with
        | Some msg -> Uncorrectable msg
        | None ->
            (* Re-verify: patching must have restored consistency. *)
            let fresh' = Checksum.recompute ?pool chk tile in
            let delta' = Mat.sub_mat fresh' stored in
            let thr' = row_thresholds ~tol stored fresh' in
            if bad_columns ~thr:thr' delta' = [] then Corrected fixes
            else
              Uncorrectable
                "residual mismatch after correction (uncorrectable pattern)"
      end

let blit_into ~src ~dst =
  for r = 0 to Mat.rows src - 1 do
    for c = 0 to Mat.cols src - 1 do
      Mat.set dst r c (Mat.get src r c)
    done
  done

let agrees_with ~tol reference fresh =
  let thr = row_thresholds ~tol reference fresh in
  bad_columns ~thr (Mat.sub_mat fresh reference) = []

(* Self-protection cross-check: the primary and shadow replicas
   received bitwise-identical updates, so any disagreement proves one
   replica was corrupted in place. A fresh recalculation from the tile
   arbitrates:

   - the recalculation matches one replica -> the other replica is the
     corrupted one; heal it by overwriting from the agreeing side (the
     tile data is clean, nothing else to do);
   - the recalculation matches neither -> the tile carries an error
     too. Trust each replica in turn as the reference for ordinary
     locate-and-patch; the first trial whose patch re-verifies wins.
     Tile and primary are restored between trials so a failed trial
     cannot leave a mis-patch behind.

   Without this cross-check a corrupted checksum read against a clean
   tile looks exactly like a tile error — and "correcting" it would
   corrupt good data. *)
let cross_check_and_heal ?pool ~tol chk tile =
  let cells = Checksum.copies_differing chk in
  let fresh = Checksum.recompute ?pool chk tile in
  if agrees_with ~tol (Checksum.matrix chk) fresh then begin
    Checksum.resync_shadow chk;
    Checksum_repaired { cells; corrections = [] }
  end
  else if agrees_with ~tol (Checksum.shadow chk) fresh then begin
    Checksum.promote_shadow chk;
    Checksum_repaired { cells; corrections = [] }
  end
  else begin
    let saved_primary = Mat.copy (Checksum.matrix chk) in
    let saved_tile = Mat.copy tile in
    let trial promote =
      promote ();
      match verify_core ?pool ~tol chk tile with
      | Clean -> Some []
      | Corrected fixes -> Some fixes
      | Checksum_repaired _ -> assert false (* verify_core never heals *)
      | Uncorrectable _ ->
          (* roll the trial back so the next reference starts clean *)
          blit_into ~src:saved_tile ~dst:tile;
          blit_into ~src:saved_primary ~dst:(Checksum.matrix chk);
          None
    in
    match trial (fun () -> Checksum.promote_shadow chk) with
    | Some fixes -> Checksum_repaired { cells; corrections = fixes }
    | None -> (
        match trial (fun () -> Checksum.resync_shadow chk) with
        | Some fixes -> Checksum_repaired { cells; corrections = fixes }
        | None ->
            Uncorrectable
              "checksum replicas disagree and neither explains the tile")
  end

let verify ?pool ?(tol = default_tol) chk tile =
  let stored = Checksum.matrix chk in
  if Mat.cols stored <> Mat.cols tile || Checksum.rows chk <> Mat.rows tile
  then invalid_arg "Verify.verify: checksum/tile shape mismatch";
  if Checksum.copies_agree chk then verify_core ?pool ~tol chk tile
  else cross_check_and_heal ?pool ~tol chk tile

(* Fused-mode verification: the kernel already carried the checksum
   chains, so all that is left is one cheap reduction of the tile —
   either the kernel's own in-cache [?fresh] or a single
   [recompute_into] pass — diffed against the carried primary. The
   clean path (overwhelmingly the common one) allocates one d×n
   scratch at most and never forms a delta matrix; any threshold
   breach or replica disagreement escalates to the full [verify]
   ladder, which re-runs its own recompute and keeps every locate /
   patch / heal behavior unchanged. *)
let compare ?pool ?(tol = default_tol) ?fresh chk tile =
  let stored = Checksum.matrix chk in
  if Mat.cols stored <> Mat.cols tile || Checksum.rows chk <> Mat.rows tile
  then invalid_arg "Verify.compare: checksum/tile shape mismatch";
  if not (Checksum.copies_agree chk) then
    cross_check_and_heal ?pool ~tol chk tile
  else begin
    let fresh =
      match fresh with
      | Some f -> f
      | None ->
          let f = Mat.create (Checksum.d chk) (Checksum.b chk) in
          Checksum.recompute_into chk tile ~into:f;
          f
    in
    let thr = row_thresholds ~tol stored fresh in
    let d = Mat.rows stored and bsz = Mat.cols stored in
    let clean = ref true in
    for i = 0 to bsz - 1 do
      for r = 0 to d - 1 do
        let v = Mat.get fresh r i -. Mat.get stored r i in
        if (not (Float.is_finite v)) || abs_float v > thr.(r) then
          clean := false
      done
    done;
    if !clean then Clean else verify_core ?pool ~tol chk tile
  end

let check ?pool ?(tol = default_tol) chk tile =
  (* Detect-only: replica disagreement is corruption by definition. *)
  Checksum.copies_agree chk
  &&
  let stored = Checksum.matrix chk in
  let fresh = Checksum.recompute ?pool chk tile in
  let delta = Mat.sub_mat fresh stored in
  let thr = row_thresholds ~tol stored fresh in
  bad_columns ~thr delta = []

(* A batch of independent tile verifications fanned out across the
   pool — the host-side realization of the paper's Optimization 1,
   which issues the per-block checksum recalculations on N concurrent
   streams instead of serially. Each task owns exactly one tile
   (recompute, locate, patch in place), so outcomes and any in-place
   corrections are identical to running [verify] sequentially, in any
   pool configuration. *)
let run_batch ?pool one jobs =
  let n = Array.length jobs in
  let out = Array.make n Clean in
  let run_one k =
    let chk, tile = jobs.(k) in
    out.(k) <- one chk tile
  in
  let module Pool = Parallel.Pool in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  if Pool.size pool > 1 && n > 1 then
    Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:n run_one
  else
    for k = 0 to n - 1 do
      run_one k
    done;
  out

let compare_batch ?pool ?(tol = default_tol) jobs =
  run_batch ?pool (fun chk tile -> compare ~tol chk tile) jobs

let pp_outcome fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Corrected fixes ->
      Format.fprintf fmt "corrected %d error(s):" (List.length fixes);
      List.iter
        (fun f ->
          Format.fprintf fmt " (%d,%d) %.6g->%.6g" f.row f.col f.wrong f.fixed)
        fixes
  | Checksum_repaired { cells; corrections } ->
      Format.fprintf fmt "checksum repaired (%d cell(s))" cells;
      if corrections <> [] then begin
        Format.fprintf fmt ", then corrected %d error(s):"
          (List.length corrections);
        List.iter
          (fun f ->
            Format.fprintf fmt " (%d,%d) %.6g->%.6g" f.row f.col f.wrong
              f.fixed)
          corrections
      end
  | Uncorrectable msg -> Format.fprintf fmt "uncorrectable: %s" msg
