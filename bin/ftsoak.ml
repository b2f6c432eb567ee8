(* ftsoak — seeded randomized multi-fault soak harness.

   Enumerates campaigns (family × scheme × grid × pool size), generates
   a deterministic per-case fault plan via Campaign.plan, runs each
   through the numeric Ft.factor recovery ladder (device-storm
   campaigns additionally run a timing-mode leg against an unreliable
   machine; solver-storm campaigns run the fault-tolerant PCG harness
   instead of a factorization), and reports an outcome histogram with
   per-rung, per-device and per-solver-rung statistics.

   Exit-code contract (documented in EXPERIMENTS.md, relied on by CI):
     0 — every campaign completed without silent corruption
     1 — usage error (bad arguments / empty case matrix)
     2 — infrastructure failure (unexpected exception while running), or
         — with --balance adaptive — the adaptive policy's summed
         device-storm makespan exceeded the static split's by more than
         the tolerance band
     3 — at least one campaign ended in SILENT CORRUPTION
   A structured give-up (ladder exhausted, or the resilient scheduler's
   CPU of last resort failed) is a *reported outcome*, not an exit
   condition: the acceptance property is "correct factor or structured
   give-up, never silence". *)

open Cmdliner
module C = Cholesky

let exit_err msg =
  Format.eprintf "ftsoak: %s@." msg;
  exit 1

(* ------------------------------------------------------------------ *)
(* Argument converters                                                 *)
(* ------------------------------------------------------------------ *)

let scheme_conv =
  let parse s =
    match Abft.Scheme.of_string s with Ok s -> Ok s | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Abft.Scheme.pp)

let family_conv =
  let parse s =
    match Campaign.family_of_string s with
    | Ok f -> Ok f
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt f -> Format.pp_print_string fmt (Campaign.family_name f))

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let campaigns_arg =
  Arg.(
    value & opt int 100
    & info [ "campaigns" ] ~docv:"N"
        ~doc:"Total number of campaigns to run (spread round-robin over the \
              case matrix).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")

let machine_arg =
  Machine_cli.machine_arg
    ~doc:
      "Machine preset used for the driver config (and the Young/Daly \
       snapshot interval when $(b,--snapshot-interval) is -1)."
    ()

let schemes_arg =
  Arg.(
    value
    & opt (list scheme_conv) [ Abft.Scheme.Online; Abft.Scheme.enhanced () ]
    & info [ "schemes" ] ~docv:"S,.."
        ~doc:"Comma-separated schemes to soak (families containing storage \
              faults only pair with enhanced).")

let grids_arg =
  Arg.(
    value
    & opt (list int) [ 4; 6 ]
    & info [ "grids" ] ~docv:"G,.." ~doc:"Tile-grid sides to soak.")

let block_arg =
  Arg.(
    value & opt int 8
    & info [ "b"; "block" ] ~docv:"B" ~doc:"Tile size for every campaign.")

let pools_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2 ]
    & info [ "pools" ] ~docv:"P,.."
        ~doc:"Domain-pool sizes; each distinct size is created once and \
              reused.")

let faults_arg =
  Arg.(
    value & opt int 3
    & info [ "faults" ] ~docv:"COUNT"
        ~doc:"Injections per campaign for the randomized families (burst is \
              always 2).")

let families_arg =
  Arg.(
    value
    & opt (list family_conv) Campaign.all_families
    & info [ "families" ] ~docv:"F,.."
        ~doc:"Fault families to soak: mixed, burst, storage-heavy, \
              compute-heavy, checksum-storm, anchor, device-storm, \
              solver-storm.")

let snapshot_arg =
  Arg.(
    value & opt int 2
    & info [ "snapshot-interval" ] ~docv:"ITERS"
        ~doc:"Iterations between verified snapshots (0 disables the rollback \
              rung; -1 picks the Young/Daly interval per grid).")

let max_rollbacks_arg =
  Arg.(
    value & opt int 2
    & info [ "max-rollbacks" ] ~docv:"N"
        ~doc:"Snapshot rollbacks per attempt before escalating to restart.")

let max_restarts_arg =
  Arg.(
    value & opt int 3
    & info [ "max-restarts" ] ~docv:"N"
        ~doc:"Full restarts before the ladder gives up.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the full per-campaign JSON report to $(docv).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Trace every campaign and write the merged Chrome Trace-Event \
              JSON (loadable in Perfetto / about:tracing) to $(docv).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Trace every campaign and write per-campaign observability \
              metrics (bench-convention JSON, one record per campaign) to \
              $(docv).")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose" ] ~doc:"Print a line per campaign as it runs.")

let balance_arg = Machine_cli.balance_arg

(* The adaptive-vs-static acceptance band for the balanced device-storm
   leg. Fault draws diverge between the two schedules once the splits
   differ, so individual campaigns are noisy; the band is judged on the
   summed makespans over the whole soak, where the storm statistics
   have averaged out. *)
let balance_tolerance = 0.10

(* ------------------------------------------------------------------ *)
(* Case enumeration and execution                                      *)
(* ------------------------------------------------------------------ *)

(* The acceptance property is about the *ladder*, not about scheme
   limitations the paper already documents: Online-ABFT inherently
   misses storage errors (its motivating failure), so storage-bearing
   families pair only with Enhanced-style schemes. *)
let compatible family scheme =
  if not (Campaign.needs_enhanced family) then true
  else match scheme with Abft.Scheme.Enhanced _ -> true | _ -> false

let enumerate ~campaigns ~seed ~families ~schemes ~grids ~pools ~block ~faults =
  let cells =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun scheme ->
            if not (compatible family scheme) then []
            else
              List.concat_map
                (fun grid ->
                  (* the burst pattern needs grid >= 4 *)
                  if family = Campaign.Burst && grid < 4 then []
                  else
                    List.map (fun domains -> (family, scheme, grid, domains))
                      pools)
                grids)
          schemes)
      families
  in
  if cells = [] then exit_err "no (family, scheme, grid, pool) cases selected";
  let cells = Array.of_list cells in
  List.init campaigns (fun id ->
      let family, scheme, grid, domains = cells.(id mod Array.length cells) in
      (* derived per-case seed: distinct per id, reproducible from the
         master seed alone *)
      let case_seed = seed + (7919 * id) in
      let plan =
        Campaign.plan family ~seed:case_seed ~grid ~block ~count:faults
      in
      {
        Campaign.id;
        family;
        scheme = Abft.Scheme.name scheme;
        grid;
        block;
        domains;
        seed = case_seed;
        plan;
      },
      scheme)

(* Device-storm campaigns run a second, timing-mode leg: the same plan
   and per-case seed against the full Cholesky schedule on a machine
   whose GPU carries a seeded reliability profile. The numeric leg
   certifies the ABFT ladder heals the corrupted-transfer bits; this
   leg certifies the resilient scheduling layer (deadline hang
   detection, backoff retry, quarantine, CPU-fallback degradation)
   against the identical fault mix. Every 13th case makes the GPU drop
   out permanently mid-schedule. *)
let device_storm_leg ~machine ~scheme ~balance ~obs (case : Campaign.case) =
  let dropout = case.Campaign.id mod 13 = 0 in
  let profile =
    Campaign.device_profile ~seed:case.Campaign.seed ~dropout
  in
  let m = Hetsim.Machine.with_reliability ~gpu:profile machine in
  let n = case.Campaign.grid * case.Campaign.block in
  (* when balancing is on, quarantined GPUs also get the half-open
     re-probe so rejoin/re-split paths are exercised under the storm *)
  let policy =
    match balance with
    | None -> Hetsim.Resilient.default_policy
    | Some _ ->
        { Hetsim.Resilient.default_policy with
          Hetsim.Resilient.reprobe_after_s = 0.05 }
  in
  let attempt ?balance () =
    let cfg =
      C.Config.make ~machine:m ~block:case.Campaign.block ~scheme ?balance ()
    in
    (match
       C.Schedule.run ~plan:case.Campaign.plan ~policy
         ~fault_seed:case.Campaign.seed ~obs cfg ~n
     with
    | r ->
        ( Campaign.device_counts_of_stats r.C.Schedule.resilience,
          None,
          Some r.C.Schedule.makespan )
    | exception
        Hetsim.Resilient.Gave_up { resource; failure; attempts; stats } ->
        (* the run died, but everything the driver counted up to that
           point still happened — dropping it to zero_device made the
           aggregate drift away from the sum of its campaigns *)
        ( Campaign.device_counts_of_stats stats,
          Some
            (Printf.sprintf "device: %s on %s after %d attempts"
               (Hetsim.Engine.failure_name failure)
               (Hetsim.Engine.resource_name resource)
               attempts),
          None ))
    [@abft.waive
      "the abandonment is accounted by value, not by a counter: the Some \
       failure line is returned to the harness, which records it in the \
       campaign report"]
  in
  match balance with
  | None ->
      let counts, gave_up, _ = attempt () in
      (counts, gave_up, None)
  | Some Hetsim.Load_balancer.Static ->
      let counts, gave_up, _ =
        attempt ~balance:Hetsim.Load_balancer.Static ()
      in
      (counts, gave_up, None)
  | Some Hetsim.Load_balancer.Adaptive ->
      (* the acceptance comparison: the same storm scheduled with the
         frozen split vs. the adaptive one *)
      let counts, gave_up, adaptive_ms =
        attempt ~balance:Hetsim.Load_balancer.Adaptive ()
      in
      let _, _, static_ms = attempt ~balance:Hetsim.Load_balancer.Static () in
      let cmp =
        match (adaptive_ms, static_ms) with
        | Some a, Some s -> Some (a, s)
        | _ -> None (* a leg gave up: nothing comparable this campaign *)
      in
      (counts, gave_up, cmp)

(* Solver-storm campaigns run the fault-tolerant PCG harness instead
   of a factorization: a block-Jacobi incomplete-Cholesky preconditioner
   (inexact, so the solver actually iterates) over a pristine SPD
   system, with the case's In_solver plan firing against the live
   x/r/p vectors and the preconditioner factor.

   The verification/checkpoint cadence is varied by case id so every
   recovery rung stays reachable across the soak: a third of the cases
   run without checkpoints, forcing detections past the backward rung
   into a full restart; the rest keep checkpoints so rollback wins
   when the iterate is implausible while forward reconstruction wins
   when it is still good.

   Classification never trusts the solver's own verdict: the true
   residual is recomputed here against the pristine inputs, so a
   "converged" report whose iterate does not actually solve the system
   is recorded as SILENT CORRUPTION. *)
let solver_leg ~obs (case : Campaign.case) =
  let n = case.Campaign.grid * case.Campaign.block in
  let a = Matrix.Spd.random_spd ~seed:(case.Campaign.seed + 1) n in
  let b = Array.init n (fun i -> 1. +. (float_of_int (i mod 7) /. 7.)) in
  let precond = Solvers.Cg.block_jacobi ~block:case.Campaign.block a in
  let verify_interval, checkpoint_interval =
    match case.Campaign.id mod 3 with
    | 0 -> (2, 0) (* no checkpoints: the backward rung escalates *)
    | 1 -> (2, 2)
    | _ -> (4, 4)
  in
  let cfg =
    Solvers.Cg.config ~rtol:1e-9 ~verify_interval ~checkpoint_interval
      ~max_rollbacks:2 ~max_restarts:3 ()
  in
  let r = Solvers.Cg.solve ~obs ~plan:case.Campaign.plan ~precond cfg a b in
  let true_resid =
    let rt = Array.copy b in
    Matrix.Blas2.gemv ~alpha:(-1.) ~beta:1. a r.Solvers.Cg.x rt;
    Matrix.Vec.nrm2 rt /. Matrix.Vec.nrm2 b
  in
  let outcome =
    match r.Solvers.Cg.outcome with
    | Solvers.Cg.Converged ->
        if Float.is_finite true_resid && true_resid <= 1e-6 then
          Campaign.Success
        else Campaign.Silent_corruption
    | Solvers.Cg.Gave_up reason ->
        Campaign.Gave_up
          (Format.asprintf "solver: %a" Solvers.Cg.pp_reason reason)
  in
  let st = r.Solvers.Cg.stats in
  {
    Campaign.case;
    outcome;
    residual = true_resid;
    verifications = 0;
    corrections = 0;
    reconstructions = 0;
    checksum_repairs = 0;
    rollbacks = 0;
    snapshots = 0;
    restarts = 0;
    fired = List.length r.Solvers.Cg.injections_fired;
    device = Campaign.zero_device;
    solver =
      {
        Campaign.iterations_s = st.Solvers.Cg.iterations;
        verifications_s = st.Solvers.Cg.verifications;
        detections_s = st.Solvers.Cg.detections;
        reconstructions_s = st.Solvers.Cg.reconstructions;
        rollbacks_s = st.Solvers.Cg.rollbacks;
        restarts_s = st.Solvers.Cg.restarts;
        precond_repairs_s = st.Solvers.Cg.precond_repairs;
      };
    obs_metrics = [];
  }

let factor_leg ~machine ~pool ~snapshot_interval ~max_rollbacks ~max_restarts
    ~balance ~obs (case, scheme) =
  let n = case.Campaign.grid * case.Campaign.block in
  let snap =
    if snapshot_interval >= 0 then snapshot_interval
    else
      C.Checkpoint.snapshot_interval_iters machine ~n ~grid:case.Campaign.grid
        ~expected_faults:(float_of_int (List.length case.Campaign.plan))
  in
  let cfg =
    C.Config.make ~machine ~block:case.Campaign.block ~scheme ~max_restarts
      ~max_rollbacks ~snapshot_interval:snap ()
  in
  let a = Matrix.Spd.random_spd ~seed:(case.Campaign.seed + 1) n in
  let report = C.Ft.factor ~pool ~obs ~plan:case.Campaign.plan cfg a in
  let st = report.C.Ft.stats in
  let device, device_gave_up, balance_cmp =
    match case.Campaign.family with
    | Campaign.Device_storm ->
        device_storm_leg ~machine ~scheme ~balance ~obs case
    | Campaign.Mixed | Campaign.Burst | Campaign.Storage_heavy
    | Campaign.Compute_heavy | Campaign.Checksum_storm | Campaign.Anchor
    | Campaign.Solver_storm ->
        (* solver-storm cases never reach this leg *)
        (Campaign.zero_device, None, None)
  in
  let outcome =
    match (report.C.Ft.outcome, device_gave_up) with
    | C.Ft.Silent_corruption, _ -> Campaign.Silent_corruption
    | C.Ft.Gave_up reason, _ -> Campaign.Gave_up (C.Recovery.describe reason)
    | C.Ft.Success, Some why -> Campaign.Gave_up why
    | C.Ft.Success, None -> Campaign.Success
  in
  ( {
      Campaign.case;
      outcome;
      residual = report.C.Ft.residual;
      verifications = st.C.Ft.verifications;
      corrections = st.C.Ft.corrections;
      reconstructions = st.C.Ft.reconstructions;
      checksum_repairs = st.C.Ft.checksum_repairs;
      rollbacks = st.C.Ft.rollbacks;
      snapshots = st.C.Ft.snapshots;
      restarts = st.C.Ft.restarts;
      fired = List.length report.C.Ft.injections_fired;
      device;
      solver = Campaign.zero_solver;
      obs_metrics = [];
    },
    balance_cmp )

(* Each traced campaign gets its own sink, so per-campaign totals are
   exact; the spans (absolute monotonic timestamps) are returned for
   the harness to merge into one whole-soak trace. *)
let run_case ~machine ~pool ~snapshot_interval ~max_rollbacks ~max_restarts
    ~balance ~traced ((case, _) as c) =
  let obs = if traced then Obs.create () else Obs.null in
  let result, balance_cmp =
    match case.Campaign.family with
    | Campaign.Solver_storm -> (solver_leg ~obs case, None)
    | Campaign.Mixed | Campaign.Burst | Campaign.Storage_heavy
    | Campaign.Compute_heavy | Campaign.Checksum_storm | Campaign.Anchor
    | Campaign.Device_storm ->
        factor_leg ~machine ~pool ~snapshot_interval ~max_rollbacks
          ~max_restarts ~balance ~obs c
  in
  ( {
      result with
      Campaign.obs_metrics = (if traced then Obs.metric_list obs else []);
    },
    balance_cmp,
    if traced then Obs.spans obs else [] )

let soak campaigns seed machine schemes grids block pools faults families
    snapshot_interval max_rollbacks max_restarts balance json trace_out
    metrics_out verbose =
  let traced = trace_out <> None || metrics_out <> None in
  if campaigns < 1 then exit_err "--campaigns must be >= 1";
  if block < 2 then exit_err "--block must be >= 2";
  if List.exists (fun g -> g < 2) grids then exit_err "--grids must all be >= 2";
  if List.exists (fun p -> p < 1) pools then exit_err "--pools must all be >= 1";
  let cases =
    try
      enumerate ~campaigns ~seed ~families ~schemes ~grids ~pools ~block ~faults
    with Invalid_argument msg -> exit_err msg
  in
  let distinct_pools = List.sort_uniq Int.compare pools in
  let pool_for =
    let pairs =
      List.map
        (fun d -> (d, Parallel.Pool.create ~domains:d ()))
        distinct_pools
    in
    fun d -> List.assoc d pairs
  in
  let all_spans = ref [] in
  let balance_sums = ref (0., 0., 0) in
  let results =
    (try
       List.map
         (fun ((case, _) as c) ->
           let r, balance_cmp, spans =
             run_case ~machine
               ~pool:(pool_for case.Campaign.domains)
               ~snapshot_interval ~max_rollbacks ~max_restarts ~balance
               ~traced c
           in
           (match balance_cmp with
           | None -> ()
           | Some (adaptive_ms, static_ms) ->
               let a, s, k = !balance_sums in
               balance_sums := (a +. adaptive_ms, s +. static_ms, k + 1));
           all_spans := spans :: !all_spans;
           if verbose then
             Format.printf "%4d %-40s %-17s resid %.2e@." case.Campaign.id
               (Campaign.case_name case)
               (match r.Campaign.outcome with
               | Campaign.Gave_up why -> "gave-up: " ^ why
               | o -> Campaign.outcome_name o)
               r.Campaign.residual;
           r)
         cases
     with e ->
       (* harness boundary: anything unexpected is an infrastructure
          failure, distinguished from silent corruption by exit code *)
       List.iter (fun d -> Parallel.Pool.shutdown (pool_for d)) distinct_pools;
       Format.eprintf "ftsoak: infrastructure failure: %s@."
         (Printexc.to_string e);
       exit 2)
    [@abft.waive
      "soak harness boundary: every unexpected exception must become exit \
       code 2, never a crash the CI job can't classify"]
  in
  List.iter (fun d -> Parallel.Pool.shutdown (pool_for d)) distinct_pools;
  let agg = Campaign.aggregate results in
  Format.printf "%a@." Campaign.pp_aggregate agg;
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Campaign.to_json ~seed results);
      close_out oc;
      Format.printf "json report written to %s@." path);
  (match trace_out with
  | None -> ()
  | Some path ->
      (* per-campaign sinks share the one monotonic clock, so the
         concatenation (campaigns ran sequentially) is already a
         globally ordered span stream *)
      let oc = open_out path in
      output_string oc
        (Obs.chrome_trace_of_spans (List.concat (List.rev !all_spans)));
      close_out oc;
      Format.printf "chrome trace written to %s@." path);
  (match metrics_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Obs.metrics_json
           (List.map
              (fun (r : Campaign.run_result) ->
                {
                  Obs.experiment = "ftsoak";
                  name = Campaign.case_name r.Campaign.case;
                  size = r.Campaign.case.Campaign.grid * r.Campaign.case.Campaign.block;
                  metrics = r.Campaign.obs_metrics;
                })
              results));
      close_out oc;
      Format.printf "metrics written to %s@." path);
  let balance_violation =
    let a, s, k = !balance_sums in
    if k = 0 then None
    else begin
      Format.printf
        "balanced device-storm: %d compared campaign(s), adaptive %.4fs vs \
         static %.4fs (%+.1f%%)@."
        k a s
        (100. *. ((a /. s) -. 1.));
      if a > s *. (1. +. balance_tolerance) then Some (a, s) else None
    end
  in
  if agg.Campaign.silent_corruptions > 0 then begin
    Format.eprintf "ftsoak: %d campaign(s) ended in SILENT CORRUPTION@."
      agg.Campaign.silent_corruptions;
    3
  end
  else
    match balance_violation with
    | Some (a, s) ->
        (* a harness-level acceptance failure, not a numeric one: the
           adaptive policy made the storm slower than the frozen split
           beyond the tolerance band *)
        Format.eprintf
          "ftsoak: adaptive balancing exceeded the static makespan band: \
           %.4fs > %.4fs * %.2f@."
          a s
          (1. +. balance_tolerance);
        2
    | None -> 0

let () =
  let term =
    Term.(
      const soak $ campaigns_arg $ seed_arg $ machine_arg $ schemes_arg
      $ grids_arg $ block_arg $ pools_arg $ faults_arg $ families_arg
      $ snapshot_arg $ max_rollbacks_arg $ max_restarts_arg $ balance_arg
      $ json_arg $ trace_out_arg $ metrics_out_arg $ verbose_arg)
  in
  let doc =
    "seeded multi-fault soak campaigns through the Cholesky recovery ladder"
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "ftsoak" ~doc) term))
