open Matrix
module Pool = Parallel.Pool

type outcome = Recovery.outcome =
  | Success
  | Silent_corruption
  | Gave_up of Recovery.reason

type stats = Recovery.stats = {
  verifications : int;
  corrections : int;
  reconstructions : int;
  checksum_repairs : int;
  uncorrectable_events : int;
  fail_stops : int;
  rollbacks : int;
  snapshots : int;
  restarts : int;
}

type report = {
  factor : Mat.t;
  outcome : outcome;
  residual : float;
  stats : stats;
  injections_fired : Injector.fired list;
  trace : Trace_op.t list;
}

exception Cancelled of { iteration : int; stats : stats }

(* Per-run racecheck tag namespace. The serving layer runs many factor
   requests concurrently (each on its own pool slot); write claims are
   per pool, but a shared or nested pool must never confuse two runs'
   identically named "tile"/"chk" rectangles — tile (2,1) of request A
   is not tile (2,1) of request B. The counter is Atomic because it is
   the one piece of driver state genuinely shared across concurrent
   requests. *)
let run_ids = Atomic.make 0

type attempt_state = {
  cfg : Config.t;
  grid : int;
  tiles : Tile.t;
  store : Abft.Checksum.store option;  (* None for No_ft *)
  injector : Injector.t;
  pool : Pool.t;
  obs : Obs.t;  (* span/counter sink; Obs.null when untraced *)
  tag_tile : string;  (* racecheck tag for tile writes, unique per run *)
  tag_chk : string;  (* racecheck tag for checksum-block writes *)
  tally : Recovery.stats ref;  (* the run's counters, shared by attempts *)
  mutable trace : Trace_op.t list;  (* reverse order *)
  mutable snap : Checkpoint.snapshot option;  (* last verified snapshot *)
  mutable rollbacks_here : int;  (* rollbacks taken by this attempt *)
}

let emit st op = st.trace <- op :: st.trace

(* Fan the row blocks of one iteration phase across the pool. Each
   index owns its own tile (and checksum block), so the fan-out is
   race-free and — because no work item is ever split — bitwise
   deterministic for every pool size. *)
let par_for st ~lo ~hi f =
  if Pool.size st.pool > 1 && hi - lo > 1 then
    Pool.parallel_for ~chunk:1 st.pool ~lo ~hi f
  else
    for i = lo to hi - 1 do
      f i
    done

let lookup st (i, c) =
  if i >= 0 && c >= 0 && i < st.grid && c < st.grid && i >= c then
    Some (Tile.tile st.tiles i c)
  else None

(* Checksum-store analogue of [lookup] for In_checksum injections: the
   injector corrupts the primary replica of the block's stored
   checksum. *)
let chk_lookup st (i, c) =
  match st.store with
  | None -> None
  | Some store ->
      if i >= 0 && c >= 0 && i < st.grid && c < st.grid && i >= c then
        Some (Abft.Checksum.matrix (Abft.Checksum.get store i c))
      else None

(* ABFT_RACECHECK instrumentation: claim the element rectangle of tile
   (i, c) — or its checksum block — before a parallel work item writes
   it. The fan-outs below are row-block disjoint by construction; the
   claims let the pool prove it on every run instead of trusting the
   comment. Free when racecheck is off. *)
let declare_tile st i c =
  if Pool.racecheck_enabled st.pool then begin
    let b = Config.block_size st.cfg in
    Pool.declare_write st.pool ~tag:st.tag_tile
      ~rows:(i * b, ((i + 1) * b) - 1)
      ~cols:(c * b, ((c + 1) * b) - 1)
  end

let declare_chk st i c =
  if Pool.racecheck_enabled st.pool then
    Pool.declare_write st.pool ~tag:st.tag_chk ~rows:(i, i) ~cols:(c, c)

let jobs_of st store blocks =
  Array.map
    (fun (i, c) -> (Abft.Checksum.get store i c, Tile.tile st.tiles i c))
    blocks

(* Verify [blocks], correcting in place; raise Recovery.Error on the
   first uncorrectable tile. The independent per-tile verifications fan
   out across the pool (the paper's Optimization 1 on real cores);
   outcomes are then folded in block order, so counters and the choice
   of "first" uncorrectable block match a sequential sweep exactly. *)
let compare_blocks ?final st store blocks =
  let outcomes =
    (* diff the kernel-carried checksum against one cheap fresh
       reduction (recomputed here, not in-kernel: faults can land on a
       tile after the kernel that produced it, so the reduction must
       read the tile as verification sees it); anything dirty escalates
       inside [compare] to the full verify ladder *)
    Abft.Verify.compare_batch ~pool:st.pool ~tol:st.cfg.Config.tol
      (jobs_of st store blocks)
  in
  Array.iteri
    (fun k block -> Recovery.account st.tally ?final ~block outcomes.(k))
    blocks

let verify_blocks st ~j ~point blocks =
  emit st (Trace_op.Verify { j; point; blocks });
  match st.store with
  | None -> ()
  | Some store ->
      (* span wraps the whole batch (including the fold) so detection
         cost is charged to "compare" even when the sweep aborts the
         attempt with Recovery.Error *)
      Obs.span st.obs ~op:"compare" ~phase:"abft" (fun () ->
          compare_blocks st store (Array.of_list blocks))

(* One attempt of the full factorization over fresh tiles, starting at
   outer iteration [from] (0 for a fresh attempt, the snapshot's
   iteration after a rollback). Returns unit; errors surface as
   Recovery.Error. [on_boundary j] runs at the top of every iteration,
   before any fault of iteration [j] fires — the snapshot hook. *)
let run_attempt st ~from ~on_boundary =
  let g = st.grid in
  let scheme = st.cfg.Config.scheme in
  let enhanced = match scheme with Abft.Scheme.Enhanced _ -> true | _ -> false in
  let online = scheme = Abft.Scheme.Online in
  let with_ft = st.store <> None in
  let kk = Abft.Scheme.verification_interval scheme in
  let tile = Tile.tile st.tiles in
  let chk i c =
    match st.store with Some s -> Abft.Checksum.get s i c | None -> assert false
  in
  (* The BLAS-3 kernels carry both checksum replica chains through their
     own blocking (bitwise the chains of the separate [Abft.Update]
     rules), so there is no separate chk-update pass for SYRK, GEMM or
     TRSM. No_ft passes no carry and runs the plain kernels; its spans
     drop the "-fused" tag. *)
  let carry f = if with_ft then Some (f ()) else None in
  let span_op name = if with_ft then name ^ "-fused" else name in
  if with_ft && from = 0 then emit st Trace_op.Encode;
  for j = from to g - 1 do
    emit st (Trace_op.Iteration_start j);
    on_boundary j;
    Injector.fire_storage st.injector ~iteration:j ~lookup:(lookup st);
    Injector.fire_device st.injector ~iteration:j ~lookup:(lookup st);
    Injector.fire_checksum st.injector ~iteration:j ~lookup:(chk_lookup st);
    let gate = Sets.k_gate ~k:kk ~j in
    (* ---- SYRK: diagonal block rank-k update ---- *)
    if Sets.syrk_exists ~j then begin
      if enhanced then verify_blocks st ~j ~point:Trace_op.Pre_syrk (Sets.pre_syrk ~j);
      let diag = tile j j in
      (* accumulates into one diagonal block: c order is load-bearing,
         parallelism lives inside the (pool-aware) kernel *)
      let t0 = Obs.start st.obs in
      for c = 0 to j - 1 do
        let lc = tile j c in
        Blas3.gemm ~pool:st.pool ~transb:Types.Trans ~alpha:(-1.) ~beta:1.
          ?fused:
            (carry (fun () ->
                 Abft.Checksum.update_fused ~chk_a:(chk j c) (chk j j)))
          lc lc diag
      done;
      Obs.stop st.obs ~tile:(j, j) ~op:(span_op "syrk") ~phase:"compute" t0;
      emit st (Trace_op.Syrk j);
      Injector.fire_compute st.injector ~iteration:j ~op:Fault.Syrk ~block:(j, j) diag;
      if with_ft then begin
        emit st (Trace_op.Chk_syrk j);
        Injector.fire_update st.injector ~iteration:j ~op:Fault.Syrk
          ~block:(j, j)
          (Abft.Checksum.matrix (chk j j))
      end;
      if online then verify_blocks st ~j ~point:Trace_op.Post_syrk (Sets.post_syrk ~j)
    end;
    (* ---- diagonal block to host (logical only in numeric mode).
       Enhanced verifies it first: the transfer is a read. ---- *)
    if enhanced then verify_blocks st ~j ~point:Trace_op.Pre_potf2 (Sets.pre_potf2 ~j);
    emit st (Trace_op.D2h_diag j);
    (* ---- GEMM: trailing panel update ---- *)
    if Sets.gemm_exists ~grid:g ~j then begin
      if enhanced && gate then
        verify_blocks st ~j ~point:Trace_op.Pre_gemm (Sets.pre_gemm ~grid:g ~j);
      (* each row block i updates only tile (i, j) and its checksum
         block: independent *)
      par_for st ~lo:(j + 1) ~hi:g (fun i ->
          declare_tile st i j;
          if with_ft then declare_chk st i j;
          let t0 = Obs.start st.obs in
          let b = tile i j in
          for c = 0 to j - 1 do
            Blas3.gemm ~pool:st.pool ~transb:Types.Trans ~alpha:(-1.) ~beta:1.
              ?fused:
                (carry (fun () ->
                     Abft.Checksum.update_fused ~chk_a:(chk i c) (chk i j)))
              (tile i c) (tile j c) b
          done;
          Obs.stop st.obs ~tile:(i, j) ~op:(span_op "gemm") ~phase:"compute"
            t0);
      emit st (Trace_op.Gemm j);
      for i = j + 1 to g - 1 do
        Injector.fire_compute st.injector ~iteration:j ~op:Fault.Gemm
          ~block:(i, j) (tile i j)
      done;
      if with_ft then begin
        emit st (Trace_op.Chk_gemm j);
        (* sequential like fire_compute above: the injector is not
           thread-safe and never needs to be *)
        for i = j + 1 to g - 1 do
          Injector.fire_update st.injector ~iteration:j ~op:Fault.Gemm
            ~block:(i, j)
            (Abft.Checksum.matrix (chk i j))
        done
      end;
      if online then
        verify_blocks st ~j ~point:Trace_op.Post_gemm (Sets.post_gemm ~grid:g ~j)
    end;
    (* ---- POTF2 on the (host-side) diagonal block ---- *)
    let diag = tile j j in
    Obs.span st.obs ~tile:(j, j) ~op:"potf2" ~phase:"compute" (fun () ->
        try Lapack.potf2 Types.Lower diag
        with Lapack.Not_positive_definite k ->
          raise (Recovery.Error (Recovery.Fail_stop { iteration = j; column = k })));
    emit st (Trace_op.Potf2 j);
    Injector.fire_compute st.injector ~iteration:j ~op:Fault.Potf2 ~block:(j, j) diag;
    if with_ft then begin
      let t0 = Obs.start st.obs in
      Abft.Update.potf2 ~chk:(chk j j) ~la:diag;
      Obs.stop st.obs ~tile:(j, j) ~op:"chk-potf2" ~phase:"chk-update" t0;
      emit st (Trace_op.Chk_potf2 j);
      Injector.fire_update st.injector ~iteration:j ~op:Fault.Potf2
        ~block:(j, j)
        (Abft.Checksum.matrix (chk j j))
    end;
    if online then verify_blocks st ~j ~point:Trace_op.Post_potf2 (Sets.post_potf2 ~j);
    (* ---- factored block back to device ---- *)
    emit st (Trace_op.H2d_diag j);
    (* ---- TRSM: panel solve against the factored diagonal ---- *)
    if Sets.trsm_exists ~grid:g ~j then begin
      if enhanced && gate then
        verify_blocks st ~j ~point:Trace_op.Pre_trsm (Sets.pre_trsm ~grid:g ~j);
      let la = tile j j in
      (* independent panel solves against the shared factored diagonal,
         each co-solving its panel's checksum chains in the same call *)
      par_for st ~lo:(j + 1) ~hi:g (fun i ->
          declare_tile st i j;
          if with_ft then declare_chk st i j;
          let t0 = Obs.start st.obs in
          Blas3.trsm ~pool:st.pool
            ?fused:(carry (fun () -> Abft.Checksum.solve_fused (chk i j)))
            Types.Right Types.Lower Types.Trans Types.Non_unit_diag la
            (tile i j);
          Obs.stop st.obs ~tile:(i, j) ~op:(span_op "trsm") ~phase:"compute"
            t0);
      emit st (Trace_op.Trsm j);
      for i = j + 1 to g - 1 do
        Injector.fire_compute st.injector ~iteration:j ~op:Fault.Trsm
          ~block:(i, j) (tile i j)
      done;
      if with_ft then begin
        emit st (Trace_op.Chk_trsm j);
        for i = j + 1 to g - 1 do
          Injector.fire_update st.injector ~iteration:j ~op:Fault.Trsm
            ~block:(i, j)
            (Abft.Checksum.matrix (chk i j))
        done
      end;
      if online then
        verify_blocks st ~j ~point:Trace_op.Post_trsm (Sets.post_trsm ~grid:g ~j)
    end
  done

(* Offline-ABFT's end-of-run verification is detect-only: once an error
   has propagated through later updates, the per-block "corrections" the
   locator suggests chase entangled checksums and can silently patch the
   data to a wrong-but-consistent state. The paper is explicit that
   correcting at the end is "impossible or very expensive" — detected
   means recompute. The [final_sweep] extension (beyond the paper) *does*
   correct: it is meant for schemes that already corrected propagation
   inline (Online/Enhanced), where a residual mismatch is a lone
   un-reread storage flip. *)
let final_verification st ~sweep =
  let offline = st.cfg.Config.scheme = Abft.Scheme.Offline in
  if st.store <> None && (offline || sweep) then
    Obs.span st.obs ~op:"final-verify" ~phase:"abft" @@ fun () ->
    begin
    let blocks = Sets.all_lower ~grid:st.grid in
    emit st (Trace_op.Final_verify blocks);
    match st.store with
    | None -> ()
    | Some store ->
        let blocks_arr = Array.of_list blocks in
        if offline then begin
          (* detect-only: read-only checks fan out, results fold in
             block order so the reported first mismatch is stable *)
          let jobs = jobs_of st store blocks_arr in
          let ok = Array.make (Array.length jobs) true in
          let run_one k =
            let chk, tile = jobs.(k) in
            ok.(k) <- Abft.Verify.check ~tol:st.cfg.Config.tol chk tile
          in
          if Pool.size st.pool > 1 && Array.length jobs > 1 then
            Pool.parallel_for ~chunk:1 st.pool ~lo:0
              ~hi:(Array.length jobs) run_one
          else Array.iteri (fun k _ -> run_one k) jobs;
          Array.iteri
            (fun k block -> Recovery.detect st.tally ~block ok.(k))
            blocks_arr
        end
        else compare_blocks ~final:true st store blocks_arr
  end

let residual_of ~input l =
  Recovery.residual ~input
    ~apply:(fun v ->
      let w = Mat.copy v in
      (Blas3.trmm Types.Left Types.Lower Types.Trans Types.Non_unit_diag l w
      [@abft.unverified
        "residual probe of the finished factor: it runs after the scheme's \
         own verification and exists to second-guess it, so it must read L \
         as-is"]);
      (Blas3.trmm Types.Left Types.Lower Types.No_trans Types.Non_unit_diag l w
      [@abft.unverified "second half of the same residual probe of L"]);
      w)
    ~product:(fun () ->
      Blas3.gemm_alloc ~transb:Types.Trans l l
      [@abft.unverified
        "dense confirmation of a residual the probe could not clear: the \
         same post-verification read of L as the probe"])

(* The graduated recovery ladder, cheapest rung first:

   1. inline correction — Verify locates and patches a tile element
      (counted in [corrections]);
   2. plain-sum reconstruction — an overwhelmed element is rebuilt from
      the plain-sum checksum row (counted in [reconstructions]); both
      of these happen inside the verification passes and never unwind
      the attempt. Checksum-replica repairs ([checksum_repairs]) are
      likewise inline.
   3. snapshot rollback — an unrecoverable event (Recovery.Error)
      restores the last verified iteration-boundary snapshot and reruns
      only the trailing iterations, up to [max_rollbacks] times per
      attempt;
   4. full restart — no usable snapshot or budget exhausted: recompute
      from the pristine input, up to [max_restarts] times;
   5. give up, reporting the last structured reason.

   Rungs 3-5 are {!Recovery.ladder}; this driver supplies rung 3. *)
let factor ?pool ?(obs = Obs.null) ?(plan = []) ?(final_sweep = false)
    ?(cancel = fun () -> false) cfg a =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Ft.factor: " ^ e));
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let n = Mat.rows a in
  let b = Config.block_size cfg in
  if Mat.cols a <> n then invalid_arg "Ft.factor: input not square";
  if n <= 0 || n mod b <> 0 then
    invalid_arg
      (Printf.sprintf "Ft.factor: order %d must be a positive multiple of the \
                       block size %d" n b);
  let run_id = Atomic.fetch_and_add run_ids 1 in
  let injector = Injector.create plan in
  let tally = ref Recovery.zero in
  let snap_every = cfg.Config.snapshot_interval in
  let attempt () =
    let tiles =
      Obs.span obs ~op:"init" ~phase:"setup" (fun () -> Tile.of_mat ~block:b a)
    in
    let store =
      match cfg.Config.scheme with
      | Abft.Scheme.No_ft -> None
      | _ ->
          Some
            (Obs.span obs ~op:"encode" ~phase:"abft" (fun () ->
                 Abft.Checksum.encode_lower ~pool tiles))
    in
    {
      cfg;
      grid = n / b;
      tiles;
      store;
      injector;
      pool;
      obs;
      tag_tile = Printf.sprintf "tile#%d" run_id;
      tag_chk = Printf.sprintf "chk#%d" run_id;
      tally;
      trace = [];
      snap = None;
      rollbacks_here = 0;
    }
  in
  let on_boundary st j =
    (* Cooperative cancellation: iteration boundaries are the only
       points where no tile is half-written and no span is open, so
       bailing here can never publish a torn result. The partial
       stats let the caller report how far the run got. *)
    if cancel () then raise (Cancelled { iteration = j; stats = !tally });
    if snap_every > 0 && j > 0 && j mod snap_every = 0 then begin
      (* Verified snapshot: sweep the whole triangle first so the
         captured state is known-consistent — rolling back to an
         unverified snapshot would faithfully restore corruption. A
         failure here escalates through the ladder like any other. *)
      verify_blocks st ~j ~point:Trace_op.Pre_snapshot
        (Sets.all_lower ~grid:st.grid);
      (* the span covers only the state capture; the verified sweep
         above is already charged to "compare" *)
      st.snap <-
        Some
          (Obs.span obs ~op:"snapshot" ~phase:"recovery" (fun () ->
               Checkpoint.take ~iteration:j st.tiles st.store));
      tally := { !tally with snapshots = !tally.snapshots + 1 };
      emit st (Trace_op.Snapshot j)
    end
  in
  let run st ~from =
    run_attempt st ~from ~on_boundary:(on_boundary st);
    final_verification st ~sweep:final_sweep
  in
  let rollback st =
    match st.snap with
    | Some s when st.rollbacks_here < cfg.Config.max_rollbacks ->
        st.rollbacks_here <- st.rollbacks_here + 1;
        Obs.span obs ~op:"rollback" ~phase:"recovery" (fun () ->
            Checkpoint.restore s ~tiles:st.tiles ~store:st.store);
        emit st (Trace_op.Rollback s.Checkpoint.iteration);
        Some s.Checkpoint.iteration
    | _ -> None
  in
  (* The run's sink doubles as the pool's for the duration, so pool
     batch counters land in the same place as the driver's spans; the
     previous sink is restored even if the ladder gives up by raising. *)
  let prev_obs = Pool.obs pool in
  Pool.set_obs pool obs;
  Fun.protect
    ~finally:(fun () -> Pool.set_obs pool prev_obs)
    (fun () ->
      let st, failure =
        Recovery.ladder ~rollback tally ~max_restarts:cfg.Config.max_restarts
          ~attempt ~run
      in
      let l, residual =
        Obs.span obs ~op:"residual" ~phase:"check" (fun () ->
            let l = Tile.to_lower st.tiles in
            (l, residual_of ~input:a l))
      in
      let stats = !tally in
      if Obs.enabled obs then begin
        let c name v = Obs.incr obs ~by:(float_of_int v) ("ft." ^ name) in
        c "verifications" stats.verifications;
        c "corrections" stats.corrections;
        c "reconstructions" stats.reconstructions;
        c "checksum_repairs" stats.checksum_repairs;
        c "uncorrectable_events" stats.uncorrectable_events;
        c "fail_stops" stats.fail_stops;
        c "rollbacks" stats.rollbacks;
        c "snapshots" stats.snapshots;
        c "restarts" stats.restarts
      end;
      {
        factor = l;
        outcome = Recovery.classify failure ~residual;
        residual;
        stats;
        injections_fired = Injector.fired injector;
        trace = List.rev st.trace;
      })

let pp_outcome = Recovery.pp_outcome

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>outcome: %a@,residual: %.3e@,%a@,injections fired: %d@]" pp_outcome
    r.outcome r.residual Recovery.pp_stats r.stats
    (List.length r.injections_fired)
