(* serve-mixed: an open loop of seeded Poisson arrivals into
   Serving.Server at a fixed offered rate; the traced run follows it
   with a ladder of higher rates to find the sustainable one. A clean
   tenant (weight 7) mixes Factor, Solve and Solve_cg at n ∈ {96, 128,
   192}; a storm tenant (weight 1, about 1/8 of arrivals) sends fault
   campaigns under a rollback-recovery override and a deadline.
   End-to-end figures are the clean tenant's, timed from each request's
   scheduled send. *)

open Matrix
open Common
module C = Cholesky
module Cg = Solvers.Cg
module Server = Serving.Server
module Pool = Parallel.Pool

let sizes = [| 96; 128; 192 |]
let block = 32
let rate = 48. (* offered arrivals per second, both tenants *)
let storm_share = 1. /. 8.
let ladder = [ 2.; 3.; 4. ] (* multiples of [rate] *)
let slo_s = 0.1 (* clean p99 limit for a sustainable rung *)
let lag_bound_s = 0.1 (* generator lag p99 beyond which a run is invalid *)
let storm_deadline_s = 0.25
let queue_capacity = 64

let storm_families =
  Campaign.[| Mixed; Checksum_storm; Storage_heavy; Compute_heavy; Anchor |]

type kind = Factor | Solve | Solve_cg

let kind_name = function
  | Factor -> "factor"
  | Solve -> "solve"
  | Solve_cg -> "solve_cg"

type input = { a : Mat.t; rhs : Vec.t }

type arrival = {
  at : float;  (** scheduled send, seconds from the leg start *)
  storm : bool;
  kind : kind;
  size : int;  (** index into [sizes] *)
  mat : int;  (** which of the two inputs of that size *)
}

let enhanced =
  C.Config.make ~machine:Hetsim.Machine.testbench ~block
    ~scheme:(Abft.Scheme.enhanced ~k:1 ()) ()

let bare =
  C.Config.make ~machine:Hetsim.Machine.testbench ~block
    ~scheme:Abft.Scheme.No_ft ()

let storm_policy =
  {
    Server.clean_tenant with
    Server.weight = 1;
    plan =
      (fun ~n ~block ~seed ->
        Campaign.plan
          storm_families.(seed mod Array.length storm_families)
          ~seed ~grid:(n / block) ~block ~count:3);
    chol =
      Some
        (C.Config.make ~machine:Hetsim.Machine.testbench ~block
           ~snapshot_interval:2 ~max_rollbacks:4 ());
  }

let tenants =
  [ ("clean", { Server.clean_tenant with Server.weight = 7 }); ("storm", storm_policy) ]

(* workers × lanes ≤ nproc: one lane per worker *)
let server_config ~seed ~lanes =
  {
    Server.workers = lanes;
    pool_domains = 1;
    queue_capacity;
    chol = enhanced;
    seed;
  }

(* Poisson arrivals at [rate] over [duration], seeded. Clean sizes lean
   small (1/2, 7/20, 3/20 for 96, 128, 192) and the rate keeps two
   workers about a quarter busy, so a host running at half speed still
   leaves them unsaturated; storm requests are n = 128. *)
let arrivals ~seed ~rate ~duration =
  let st = Random.State.make [| seed; int_of_float (rate *. 1000.) |] in
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float st 1.) /. rate) in
    if t >= duration then List.rev acc
    else
      let storm = Random.State.float st 1. < storm_share in
      let kind =
        if storm then Factor
        else [| Factor; Solve; Solve_cg |].(Random.State.int st 3)
      in
      let size =
        if storm then 1
        else
          let u = Random.State.float st 1. in
          if u < 0.5 then 0 else if u < 0.85 then 1 else 2
      in
      go t ({ at = t; storm; kind; size; mat = Random.State.int st 2 } :: acc)
  in
  go 0. []

let work inputs arr =
  let inp = inputs.(arr.size).(arr.mat) in
  match arr.kind with
  | Factor -> Server.Factor inp.a
  | Solve -> Server.Solve { a = inp.a; rhs = inp.rhs }
  | Solve_cg -> Server.Solve_cg { a = inp.a; rhs = inp.rhs }

(* The same work as a direct library call on one lane (the default
   pool, sized to one lane for this workload), as a server worker would
   run it. *)
let direct cfg inp kind =
  let r = C.Ft.factor ~pool:(Pool.default ()) cfg inp.a in
  match kind with
  | Factor -> ()
  | Solve ->
      let x = Vec.copy inp.rhs in
      Blas2.trsv Types.Lower Types.No_trans Types.Non_unit_diag r.C.Ft.factor x;
      Blas2.trsv Types.Lower Types.Trans Types.Non_unit_diag r.C.Ft.factor x
  | Solve_cg ->
      ignore
        (Cg.solve ~precond:(Cg.ic r.C.Ft.factor) Cg.default inp.a inp.rhs
          : Cg.report)

(* Direct-call seconds per (kind, size), as (Enhanced, No_ft) pairs
   over both inputs, alternating which scheme runs first. The Enhanced
   side is the base of the dispatch overhead, the ratio the paper's
   overhead at this workload's request mix. *)
let direct_pairs inputs =
  List.concat_map
    (fun kind ->
      List.init (Array.length sizes) (fun size ->
          ( (kind, size),
            List.init 4 (fun i ->
                let inp = inputs.(size).(i mod 2) in
                let t cfg = snd (timed (fun () -> direct cfg inp kind)) in
                if i mod 2 = 0 then
                  let b = t bare in
                  (t enhanced, b)
                else
                  let e = t enhanced in
                  (e, t bare)) )))
    [ Factor; Solve; Solve_cg ]

let overhead_ratio pairs =
  median (List.concat_map (fun (_, ps) -> List.map (fun (e, b) -> e /. b) ps) pairs)

let enhanced_median pairs key = median (List.map fst (List.assoc key pairs))

type env = { inputs : input array array; srv : Server.t }

(* Set-up is the seeded inputs and the server start. *)
let setup ~seed ~lanes ~obs =
  let inputs =
    Array.map
      (fun n ->
        Array.init 2 (fun m ->
            {
              a = Spd.random_spd ~seed:(seed + (10 * n) + m) n;
              rhs = Array.init n (fun i -> 1. +. float_of_int ((i + m) mod 5));
            }))
      sizes
  in
  { inputs; srv = Server.create ~obs (server_config ~seed ~lanes) tenants }

(* every clean kind at every size through the server *)
let warm_up env =
  List.iter
    (fun kind ->
      List.iteri
        (fun size _ ->
          match
            Server.submit env.srv ~tenant:"clean"
              (work env.inputs { at = 0.; storm = false; kind; size; mat = 0 })
          with
          | Ok tk -> ignore (Server.await env.srv tk : Server.outcome)
          | Error _ -> ())
        (Array.to_list sizes))
    [ Factor; Solve; Solve_cg ]

(* Check a completed output against its pristine input; a storm
   request that completed wrong is silent corruption too. *)
let output_ok ~seed inputs arr report solution =
  let inp = inputs.(arr.size).(arr.mat) in
  let what =
    Printf.sprintf "serve-mixed %s %s n=%d"
      (if arr.storm then "storm" else "clean")
      (kind_name arr.kind) sizes.(arr.size)
  in
  match (arr.kind, solution) with
  | Factor, _ ->
      factor_ok ~seed inp.a report.C.Ft.factor
      || (record_wrong "%s: completed with a wrong factor" what; false)
  | (Solve | Solve_cg), Some x ->
      solve_ok inp.a x inp.rhs
      || (record_wrong "%s: completed with a wrong solution" what; false)
  | (Solve | Solve_cg), None ->
      record_wrong "%s: completed without a solution" what;
      false

type fate =
  | Served of { latency : float; wait : float; service : float; ok : bool }
      (** [latency]: the client's completion stamp − scheduled send *)
  | Unserved  (** rejected, past its deadline, cancelled or failed *)

type sent = {
  arr : arrival;
  lag : float;  (** submit time − scheduled time *)
  fate : fate;
}

(* A request the server failed — including a factor Ft's own
   residual check caught and withheld — published nothing, so it is
   unserved, not wrong. *)
let settle ~seed inputs arr ~lag ~latency = function
  | Server.Completed { report; solution; wait_s; service_s; _ } ->
      let ok = output_ok ~seed inputs arr report solution in
      { arr; lag; fate = Served { latency; wait = wait_s; service = service_s; ok } }
  | Server.Failed _ | Server.Deadline_exceeded _ | Server.Cancelled _ ->
      { arr; lag; fate = Unserved }

(* How often an idle client polls its pending tickets, so about how late
   it stamps a completion. *)
let poll_s = 0.0005

(* One open-loop leg: submit along the schedule and never block on a
   result. Between sends the client polls every pending ticket, stamps
   each completion on its own clock, then checks the outputs and drops
   them; after the last send it polls until none is pending. *)
let run_leg ~seed srv inputs arrivals =
  let t_start = now () in
  let pending = ref [] and sent = ref [] in
  let collect () =
    let finished, still =
      List.partition_map
        (fun ((_, due, _, tk) as p) ->
          match Server.poll srv tk with
          | Some o -> Left (p, o, now () -. due)
          | None -> Right p)
        !pending
    in
    pending := still;
    List.iter
      (fun ((arr, _, lag, _), o, latency) ->
        sent := settle ~seed inputs arr ~lag ~latency o :: !sent)
      finished
  in
  let rec wait_until t =
    collect ();
    let d = t -. now () in
    if d > 0. then begin
      Unix.sleepf (Float.min poll_s d);
      wait_until t
    end
  in
  List.iter
    (fun arr ->
      let due = t_start +. arr.at in
      wait_until due;
      let lag = now () -. due in
      let w = work inputs arr in
      let r =
        if arr.storm then
          Server.submit srv ~tenant:"storm" ~deadline_s:storm_deadline_s w
        else Server.submit srv ~tenant:"clean" w
      in
      match r with
      | Ok tk -> pending := (arr, due, lag, tk) :: !pending
      | Error _ -> sent := { arr; lag; fate = Unserved } :: !sent)
    arrivals;
  while !pending <> [] do
    Unix.sleepf poll_s;
    collect ()
  done;
  (!sent, now () -. t_start)

type clean = {
  latency : float;
  lag : float;
  wait : float;
  service : float;
  arrival : arrival;
}

let clean_served sent =
  List.filter_map
    (fun (s : sent) ->
      match s.fate with
      | Served { latency; wait; service; ok = true } when not s.arr.storm ->
          Some { latency; lag = s.lag; wait; service; arrival = s.arr }
      | _ -> None)
    sent

(* The highest ladder rate whose clean p99 meets the limit with every
   clean request served, interpolated on p99 between the last passing
   and the first failing rung. *)
let sustainable_rate ~seed ~lanes inputs ~rung_s ~main_p99 =
  let rung m =
    let srv = Server.create (server_config ~seed ~lanes) tenants in
    let arr = arrivals ~seed:(seed + int_of_float (m *. 100.)) ~rate:(m *. rate)
        ~duration:rung_s in
    let sent, _ = run_leg ~seed srv inputs arr in
    Server.shutdown srv ~drain:true;
    let clean = List.filter (fun s -> not s.arr.storm) sent in
    let done_ = clean_served sent in
    let p99 =
      if List.length done_ < List.length clean then infinity
      else quantile 0.99 (List.map (fun c -> c.latency) done_)
    in
    (m *. rate, p99)
  in
  let rec climb (r0, p0) = function
    | [] -> r0
    | m :: rest ->
        let r1, p1 = rung m in
        if p1 <= slo_s then climb (r1, p1) rest
        else if Float.is_finite p1 then
          r0 +. ((r1 -. r0) *. (slo_s -. p0) /. (p1 -. p0))
        else r0
  in
  if main_p99 > slo_s then 0. else climb (rate, main_p99) ladder

(* each ladder rung lasts a tenth of the run *)
let rung_seconds seconds = 0.1 *. seconds

let lag_check lags =
  let p99 = quantile 0.99 lags in
  if p99 > lag_bound_s then
    record_wrong "serve-mixed: load generator fell %.1f ms behind at p99 (bound %.0f ms)"
      (ms p99) (ms lag_bound_s);
  p99

(* storm requests served with a correct output *)
let storm_served sent =
  List.length
    (List.filter
       (fun s ->
         match s.fate with Served { ok; _ } -> s.arr.storm && ok | Unserved -> false)
       sent)

(* Set-up is timed nine times before the leg and nine after it, so a
   slow spell of the host at start-up alone does not lift the fastest. *)
let setup_nine ~seed ~lanes =
  setup_min ~runs:9
    ~release:(fun e -> Server.shutdown e.srv ~drain:true)
    (fun () -> setup ~seed ~lanes ~obs:Obs.null)

let run ~seed ~seconds ~lanes =
  let env, before_s = setup_nine ~seed ~lanes in
  warm_up env;
  let sent, wall =
    run_leg ~seed env.srv env.inputs (arrivals ~seed ~rate ~duration:seconds)
  in
  Server.shutdown env.srv ~drain:true;
  let setup_s =
    let again, after_s = setup_nine ~seed ~lanes in
    Server.shutdown again.srv ~drain:true;
    Float.min before_s after_s
  in
  ignore (lag_check (List.map (fun (s : sent) -> s.lag) sent) : float);
  let clean = List.filter (fun s -> not s.arr.storm) sent in
  let done_ = clean_served sent in
  let failed = List.length clean - List.length done_ in
  let fi = float_of_int in
  let lat = List.map (fun c -> c.latency) done_ in
  {
    attempted = List.length clean;
    failed;
    metrics =
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb ());
        ("latency_p50_ms", ms (median lat));
        ("latency_p90_ms", ms (quantile 0.9 lat));
        ("latency_p99_ms", ms (quantile 0.99 lat));
        ("ops_per_s", ratio (fi (List.length done_)) wall);
        ( "gflops",
          gflops
            ~flops:
              (sum
                 (List.map
                    (fun c -> (fi sizes.(c.arrival.size) ** 3.) /. 3.)
                    done_))
            (sum (List.map (fun c -> c.service) done_)) );
        ("ft_overhead_ratio", overhead_ratio (direct_pairs env.inputs));
      ];
    extra =
      [
        ("failed_frac", ratio (fi failed) (fi (List.length clean)));
        ("clean_requests", fi (List.length clean));
      ];
  }

let run_traced ~seed ~seconds ~lanes ~trace_path =
  let obs = Obs.create () in
  let env = setup ~seed ~lanes ~obs in
  warm_up env;
  let pairs = direct_pairs env.inputs in
  let sent, _ =
    run_leg ~seed env.srv env.inputs (arrivals ~seed ~rate ~duration:seconds)
  in
  Server.shutdown env.srv ~drain:true;
  let cn = Server.counters env.srv in
  let lag_p99 = lag_check (List.map (fun (s : sent) -> s.lag) sent) in
  let clean = List.filter (fun s -> not s.arr.storm) sent in
  let storm = List.filter (fun s -> s.arr.storm) sent in
  let done_ = clean_served sent in
  let storm_done = storm_served sent in
  let lat = List.map (fun c -> c.latency) done_ in
  let sustainable =
    sustainable_rate ~seed ~lanes env.inputs ~rung_s:(rung_seconds seconds)
      ~main_p99:(quantile 0.99 lat)
  in
  let waits = List.map (fun c -> c.wait) done_ in
  let services = List.map (fun c -> c.service) done_ in
  (* per request: service minus the direct call for the same work *)
  let dispatch =
    median
      (List.map
         (fun c ->
           c.service -. enhanced_median pairs (c.arrival.kind, c.arrival.size))
         done_)
  in
  (* per request: what the client saw beyond generator lag + the
     server's wait + service, i.e. handing the result back *)
  let handoffs =
    List.map (fun c -> c.latency -. (c.lag +. c.wait +. c.service)) done_
  in
  (* Layer sums. The server's parts must account for the client's
     latency: no hand-off may be negative beyond clock jitter, and the
     hand-offs, less the client's polling interval, must stay within 5%
     of the summed latency. The service must not undercut the direct
     call it wraps. *)
  let n_done = float_of_int (List.length done_) in
  let failed_checks =
    (if List.exists (fun h -> h < -0.001) handoffs then 1 else 0)
    + (if sum handoffs -. (n_done *. poll_s) > 0.05 *. sum lat then 1 else 0)
    + if dispatch < -0.05 *. median services then 1 else 0
  in
  let fi = float_of_int in
  write_file trace_path (Obs.chrome_trace obs);
  let solver name = counter obs ("solver." ^ name) in
  let n_cg = fi (max 1 (List.length (List.filter (fun c -> c.arrival.kind = Solve_cg) done_))) in
  {
    attempted = List.length clean;
    failed = List.length clean - List.length done_;
    metrics =
      [
        ("server.wait_p50_ms", ms (median waits));
        ("server.wait_p99_ms", ms (quantile 0.99 waits));
        ("server.service_p50_ms", ms (median services));
        ("server.service_p99_ms", ms (quantile 0.99 services));
        ("server.dispatch_overhead_ms", ms dispatch);
        ("server.handoff_p50_ms", ms (median handoffs));
        ("server.handoff_p99_ms", ms (quantile 0.99 handoffs));
        ("server.rejected_overloaded", fi cn.Server.rejected_overloaded);
        ("server.rejected_quota", fi cn.Server.rejected_quota);
        ("server.breaker_trips", fi cn.Server.breaker_trips);
        ("server.deadline_exceeded", fi cn.Server.deadline_exceeded);
        ( "server.storm_completed_frac",
          ratio (fi storm_done) (fi (List.length storm)) );
        ("server.sustainable_rate_per_s", sustainable);
        ("loadgen.lag_p99_ms", ms lag_p99);
        ("solvers.iterations", solver "iterations" /. n_cg);
        ( "solvers.verify_frac",
          ratio (solver "verifications") (solver "iterations") );
        ("solvers.detections", solver "detections" /. n_cg);
        ("solvers.rollbacks", solver "rollbacks" /. n_cg);
        ("solvers.restarts", solver "restarts" /. n_cg);
        ("check.layer_sum_failed", fi failed_checks);
      ];
    extra = [];
  }
