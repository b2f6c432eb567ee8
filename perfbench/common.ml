(* Shared machinery for the benchmark workloads: the clock, sample
   statistics, the independent output oracle, span-union accounting
   over an Obs sink, the layer probes and the result record. *)

open Matrix

(* The monotonic clock Obs stamps spans with, so wall times measured
   here and span intervals recorded by the library share one axis. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear-interpolation quantile (the "type 7" rule), [0.] on no
   samples. *)
let quantile q samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  match Array.length a with
  | 0 -> 0.
  | n ->
      let h = q *. float_of_int (n - 1) in
      let lo = int_of_float h in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let ms s = 1e3 *. s

let ratio num den = if den > 0. then num /. den else 0.

(* Geometric mean of positive ratios. *)
let geomean = function
  | [] -> 0.
  | l -> exp (sum (List.map log l) /. float_of_int (List.length l))

(* ------------------------------------------------------------------ *)
(* Host drift                                                         *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts by up to a third within seconds (other
   tenants on the same machine): more than a regression bound. Closed
   loops therefore cut a run into windows that weigh the work alike and
   report each timing figure from its fastest window: a slower program
   slows every window, a busy host only some. *)
let windows = 5

(* The samples of each window. [index] numbers the samples' units of
   work — a pass, a cycle, a pair — in run order from 0, and the units
   are cut into [windows] contiguous runs of equal count. *)
let group ?(windows = windows) ~index samples =
  let count = 1 + List.fold_left (fun m s -> max m (index s)) 0 samples in
  let w = Array.make windows [] in
  List.iter
    (fun s ->
      let k = index s * windows / count in
      w.(k) <- s :: w.(k))
    samples;
  List.filter_map (function [] -> None | l -> Some (List.rev l)) (Array.to_list w)

(* a time from the fastest window, and a rate *)
let fastest_time stat ws = List.fold_left (fun b w -> Float.min b (stat w)) infinity ws
let fastest_rate stat ws = List.fold_left (fun b w -> Float.max b (stat w)) 0. ws

(* Process high-water resident memory in MB: VmHWM where /proc exists,
   otherwise the GC's peak heap (a lower bound). *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* ------------------------------------------------------------------ *)
(* Independent output oracle                                          *)
(* ------------------------------------------------------------------ *)

(* Relative error bound shared by both checks; the same order as the
   Ft's own residual threshold, but computed here from the pristine
   input without reading any report field. *)
let oracle_tol = 1e-6

let probe_vectors ~seed n =
  List.init 3 (fun j ->
      let st = Random.State.make [| seed; n; j |] in
      Array.init n (fun _ -> Random.State.float st 2. -. 1.))

(* max over seeded probes v of ‖A·v − L·(Lᵀ·v)‖ / ‖A·v‖: O(n²) per
   probe, reading only the lower triangle of [l]. *)
let factor_error ~seed a l =
  let n = Mat.rows a in
  if Mat.rows l <> n || Mat.cols l <> n then infinity
  else
    List.fold_left
      (fun worst v ->
        let av = Vec.create n in
        Blas2.gemv a v av;
        let w = Vec.copy v in
        Blas2.trmv Types.Lower Types.Trans Types.Non_unit_diag l w;
        Blas2.trmv Types.Lower Types.No_trans Types.Non_unit_diag l w;
        Vec.axpy (-1.) av w;
        let e = Vec.nrm2 w /. Float.max Float.min_float (Vec.nrm2 av) in
        if Float.is_nan e then infinity else Float.max worst e)
      0. (probe_vectors ~seed n)

let factor_ok ~seed a l = factor_error ~seed a l <= oracle_tol

(* ‖A·x − b‖ / ‖b‖ *)
let solve_error a x b =
  if Array.length x <> Array.length b then infinity
  else begin
    let r = Vec.copy b in
    Blas2.gemv ~alpha:(-1.) ~beta:1. a x r;
    let e = Vec.nrm2 r /. Float.max Float.min_float (Vec.nrm2 b) in
    if Float.is_nan e then infinity else e
  end

let solve_ok a x b = solve_error a x b <= oracle_tol

(* ------------------------------------------------------------------ *)
(* Span accounting                                                    *)
(* ------------------------------------------------------------------ *)

(* Wall-clock length of the union of the intervals: busy time of a
   phase whose spans were emitted from several domains at once. *)
let union_s intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  let total, cur =
    List.fold_left
      (fun (total, cur) (t0, t1) ->
        match cur with
        | Some (c0, c1) when t0 <= c1 -> (total, Some (c0, Float.max c1 t1))
        | Some (c0, c1) -> (total +. (c1 -. c0), Some (t0, t1))
        | None -> (total, Some (t0, t1)))
      (0., None) sorted
  in
  match cur with Some (c0, c1) -> total +. (c1 -. c0) | None -> total

let spans_where obs pred =
  List.filter_map
    (fun (s : Obs.span) -> if pred s then Some (s.Obs.t0, s.Obs.t1) else None)
    (Obs.spans obs)

let union_where obs pred = union_s (spans_where obs pred)

let counter obs name =
  match List.assoc_opt name (Obs.counters obs) with Some v -> v | None -> 0.

(* Ft's phase breakdown of one traced factorization, in
   wall seconds. The phases never overlap in time (each pool batch
   joins before the next starts), so they sum to the union. *)
type ft_phases = {
  init_s : float;
  encode_s : float;
  compute_s : float;
  chk_update_s : float;
  compare_s : float;
  verify_s : float;
  recovery_s : float;
  residual_s : float;
}

let ft_phases obs =
  let op o (s : Obs.span) = String.equal s.Obs.op o in
  let phase p (s : Obs.span) = String.equal s.Obs.phase p in
  {
    init_s = union_where obs (op "init");
    encode_s = union_where obs (op "encode");
    compute_s = union_where obs (phase "compute");
    chk_update_s = union_where obs (phase "chk-update");
    compare_s = union_where obs (op "compare");
    verify_s =
      union_where obs (fun s -> op "verify" s || op "final-verify" s);
    recovery_s = union_where obs (phase "recovery");
    residual_s = union_where obs (op "residual");
  }

let phases_total p =
  p.init_s +. p.encode_s +. p.compute_s +. p.chk_update_s +. p.compare_s
  +. p.verify_s +. p.recovery_s +. p.residual_s

(* The ROADMAP attribution rule: phase times within 5% of wall. *)
let coverage_ok c = Float.abs (c -. 1.) <= 0.05

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** the gated metrics of the mode (end-to-end or per-layer) *)
  extra : (string * float) list;  (** printed, not gated *)
}

(* Anything that made an output wrong: reported, then the run exits
   nonzero. *)
let wrong = ref []

let record_wrong fmt =
  Printf.ksprintf (fun s -> wrong := s :: !wrong) fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* ------------------------------------------------------------------ *)
(* Direct layer probes (traced runs)                                  *)
(* ------------------------------------------------------------------ *)

(* Median seconds of [reps] calls of [f] after one warm-up call. *)
let probe ~reps f =
  f ();
  median (List.init reps (fun _ -> snd (timed f)))

let gflops ~flops s = ratio flops s /. 1e9

(* The kernels as Ft calls them on b×b tiles, the n×n
   residual GEMM, and Verify on a clean and on a one-flip tile. *)
let layer_probes ~pool ~seed ~b ~n_resid =
  let bf = float_of_int b in
  let tile k = Spd.random ~seed:(seed + k) b b in
  let a = tile 1 and bt = tile 2 and c = tile 3 in
  let spd = Spd.random_spd ~seed:(seed + 4) b in
  let reps = max 5 (min 200 (int_of_float (4e7 /. (bf *. bf *. bf)))) in
  let gemm ?fused x y () =
    Blas3.gemm ~pool ~transb:Types.Trans ~alpha:(-1.) ~beta:1. ?fused x y c
  in
  let chk m = Abft.Checksum.encode ~pool m in
  let t_gemm = probe ~reps (gemm a bt) in
  let t_gemm_f =
    let f = Abft.Checksum.update_fused ~chk_a:(chk a) (chk c) in
    probe ~reps (gemm ~fused:f a bt)
  in
  let t_syrk_f =
    let f = Abft.Checksum.update_fused ~chk_a:(chk a) (chk c) in
    probe ~reps (gemm ~fused:f a a)
  in
  let l = Lapack.cholesky spd in
  let t_trsm_f =
    let x = Mat.copy bt in
    let f = Abft.Checksum.solve_fused (chk x) in
    probe ~reps (fun () ->
        Blas3.trsm ~pool ~fused:f Types.Right Types.Lower Types.Trans
          Types.Non_unit_diag l x)
  in
  let t_potf2 =
    probe ~reps (fun () -> Lapack.potf2 Types.Lower (Mat.copy spd))
  in
  let t_copy = probe ~reps (fun () -> ignore (Mat.copy spd : Mat.t)) in
  let t_resid =
    let big = Spd.random ~seed:(seed + 5) n_resid n_resid in
    probe ~reps:2 (fun () ->
        ignore (Blas3.gemm_alloc ~transb:Types.Trans big big : Mat.t))
  in
  let verify_us flip =
    let clean = chk a in
    let samples =
      List.init (4 * reps) (fun k ->
          let t = Mat.copy a and ck = Abft.Checksum.copy clean in
          if flip then begin
            let i = k mod b and j = (k * 7) mod b in
            Mat.set t i j (Mat.get t i j +. 1.)
          end;
          let outcome, s = timed (fun () -> Abft.Verify.verify ck t) in
          (match (flip, outcome) with
          | false, Abft.Verify.Clean | true, Abft.Verify.Corrected _ -> ()
          | _ -> record_wrong "verify probe (flip=%b) misclassified a tile" flip);
          s)
    in
    1e6 *. median samples
  in
  let n3 = bf *. bf *. bf and r = float_of_int n_resid in
  [
    ("matrix.gemm_gflops", gflops ~flops:(2. *. n3) t_gemm);
    ("matrix.gemm_fused_gflops", gflops ~flops:(2. *. n3) t_gemm_f);
    ("matrix.syrk_fused_gflops", gflops ~flops:(2. *. n3) t_syrk_f);
    ("matrix.trsm_fused_gflops", gflops ~flops:n3 t_trsm_f);
    ( "matrix.potf2_gflops",
      gflops ~flops:(n3 /. 3.) (Float.max 1e-9 (t_potf2 -. t_copy)) );
    ("matrix.residual_gemm_gflops", gflops ~flops:(2. *. r *. r *. r) t_resid);
    ("abft.verify_clean_us", verify_us false);
    ("abft.verify_correct_us", verify_us true);
  ]

(* ------------------------------------------------------------------ *)
(* Set-up and checked factorization                                   *)
(* ------------------------------------------------------------------ *)

(* Runs the one-off set-up [runs] times, releasing all but the last
   environment; the set-up time is the fastest, which only a slower
   set-up can move, not a busy host. Warm-up work is not set-up: it
   runs after, untimed. *)
let setup_min ?(release = ignore) ~runs f =
  let rec go k best =
    let env, s = timed f in
    let best = Float.min best s in
    if k <= 1 then (env, best)
    else begin
      release env;
      go (k - 1) best
    end
  in
  go runs infinity

(* A factorization's output is right when Ft reports success
   and the oracle agrees; a success the oracle refutes is a silent
   corruption. An outcome Ft itself flags — a give-up, or a
   factor its residual check caught (its [Silent_corruption]) — is a
   failure, not a wrong output: nothing was presented as correct. *)
let check_factor ~seed ~what a (r : Cholesky.Ft.report) =
  match r.Cholesky.Ft.outcome with
  | Cholesky.Ft.Success ->
      factor_ok ~seed a r.Cholesky.Ft.factor
      || (record_wrong "%s: reported success but the factor fails the probe" what;
          false)
  | Cholesky.Ft.Silent_corruption | Cholesky.Ft.Gave_up _ -> false
