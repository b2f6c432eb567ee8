(* sim-paper: a closed loop of timing-mode Schedule.run simulations at
   the paper's scale — tardis and bulldozer64, n = 5120…30720, No_ft /
   Online / Enhanced — and Enhanced under the
   canonical GPU storm profile with adaptive balancing. Only hetsim
   works here; every configuration runs twice per pass and its virtual
   makespan must repeat bitwise. *)

open Common
module C = Cholesky
module Machine = Hetsim.Machine

let machines = [ ("tardis", Machine.tardis); ("bulldozer64", Machine.bulldozer64) ]
let paper_sizes = [ 5120; 10240; 15360; 20480; 25600; 30720 ]
let headline_n = 30720

let schemes =
  [
    ("no_ft", Abft.Scheme.No_ft);
    ("online", Abft.Scheme.Online);
    ("enhanced", Abft.Scheme.enhanced ~k:1 ());
  ]

type job = {
  label : string;
  machine : string;
  scheme : string;
  n : int;
  storm : bool;
  cfg : C.Config.t;
  fault_seed : int;
  pass : int;
}

(* The sweep: the paper's sizes, every scheme, clean machines — the
   same jobs on every run — and Enhanced at n = 10240 on a storming GPU
   with adaptive balancing, whose fault draws come from the seed and
   change with every pass. A storm simulation costs tens of clean ones,
   so one per machine per pass keeps the clean sweep the bulk of the
   work. *)
let jobs ~seed ~pass =
  let clean =
    List.concat_map
      (fun (mname, m) ->
        List.concat_map
          (fun n ->
            List.map
              (fun (sname, scheme) ->
                {
                  label = Printf.sprintf "%s/%s/%d" mname sname n;
                  machine = mname;
                  scheme = sname;
                  n;
                  storm = false;
                  cfg = C.Config.make ~machine:m ~scheme ();
                  fault_seed = 0;
                  pass;
                })
              schemes)
          paper_sizes)
      machines
  in
  let storm =
    List.concat_map
      (fun (mname, m) ->
        List.map
          (fun n ->
            let fault_seed = (seed * 7919) + pass in
            {
              label = Printf.sprintf "%s/enhanced-storm/%d/%d" mname n fault_seed;
              machine = mname;
              scheme = "enhanced";
              n;
              storm = true;
              cfg =
                C.Config.make
                  ~machine:(Machine_cli.apply_device_faults ~rate:1.0 m)
                  ~scheme:(Abft.Scheme.enhanced ~k:1 ())
                  ~balance:Hetsim.Load_balancer.Adaptive ();
              fault_seed;
              pass;
            })
          [ 10240 ])
      machines
  in
  clean @ storm

type sim = {
  job : job;
  wall : float;
  makespan : float option;  (** [None] when the run gave up *)
  engine_ops : int;
  resilience : Hetsim.Resilient.stats option;
}

let simulate ~obs job =
  match
    timed (fun () ->
        Obs.span obs ~op:"schedule.run" ~phase:"bench" (fun () ->
            C.Schedule.run ~obs ~fault_seed:job.fault_seed job.cfg ~n:job.n))
  with
  | r, wall ->
      {
        job;
        wall;
        makespan = Some r.C.Schedule.makespan;
        engine_ops = Hetsim.Engine.op_count r.C.Schedule.engine;
        resilience = Some r.C.Schedule.resilience;
      }
  | exception Hetsim.Resilient.Gave_up { stats; _ } ->
      {
        job;
        wall = 0.;
        makespan = None;
        engine_ops = 0;
        resilience = Some stats;
      }

(* Whole passes over the sweep until the time is up, so every run
   weighs the jobs alike. Each job runs twice back to back, and every
   makespan must equal, bit for bit, the one the job produced first. *)
let loop ~seed ~seconds ~obs =
  let first = Hashtbl.create 64 in
  let bits s = Option.map Int64.bits_of_float s.makespan in
  let run_job job =
    let s1 = simulate ~obs job in
    let s2 = simulate ~obs job in
    let b =
      match Hashtbl.find_opt first job.label with
      | Some b -> b
      | None ->
          Hashtbl.replace first job.label (bits s1);
          bits s1
    in
    if bits s1 <> b || bits s2 <> b then
      record_wrong "sim-paper %s: virtual makespan differs between runs" job.label;
    [ s1; s2 ]
  in
  let deadline = now () +. seconds in
  let builds = ref [] in
  let rec passes pass acc =
    let js, build_s = timed (fun () -> jobs ~seed ~pass) in
    builds := build_s :: !builds;
    let acc = List.rev_append (List.concat_map run_job js) acc in
    if now () >= deadline then List.rev acc else passes (pass + 1) acc
  in
  let sims = passes 0 [] in
  (jobs ~seed ~pass:0, sims, first, !builds)

(* first-pass makespan of a clean job *)
let makespan first ~machine ~scheme ~n =
  match Hashtbl.find_opt first (Printf.sprintf "%s/%s/%d" machine scheme n) with
  | Some (Some b) -> Int64.float_of_bits b
  | _ -> 0.

let overheads first jobs =
  List.filter_map
    (fun j ->
      if j.storm || j.scheme <> "enhanced" then None
      else
        let e = makespan first ~machine:j.machine ~scheme:"enhanced" ~n:j.n in
        let b = makespan first ~machine:j.machine ~scheme:"no_ft" ~n:j.n in
        Some (j, ratio e b))
    jobs

(* the paper's band: tardis Enhanced stays under 6% over No_ft once
   n >= 7680 (Fig. 14) *)
let check_band first jobs =
  List.iter
    (fun (j, r) ->
      if j.machine = "tardis" && j.n >= 7680 && not (r > 0. && r < 1.06) then
        record_wrong "sim-paper %s: Enhanced overhead %.2f%% outside the 6%% band"
          j.label ((r -. 1.) *. 100.))
    (overheads first jobs)

let summary ~sims ~first ~jobs =
  let ok = List.filter (fun s -> s.makespan <> None) sims in
  let walls = List.map (fun s -> s.wall) ok in
  let enh = overheads first jobs in
  let vflops =
    sum (List.map (fun (j, _) -> (float_of_int j.n ** 3.) /. 3.) enh)
  and vtime =
    sum
      (List.map
         (fun (j, _) -> makespan first ~machine:j.machine ~scheme:"enhanced" ~n:j.n)
         enh)
  in
  (ok, walls, gflops ~flops:vflops vtime, geomean (List.map snd enh))

let run ~seed ~seconds =
  (* warm-up, untimed: one pass over the clean sweep *)
  List.iter
    (fun j ->
      if not j.storm then ignore (C.Schedule.run j.cfg ~n:j.n : C.Schedule.result))
    (jobs ~seed ~pass:0);
  let jobs, sims, first, builds = loop ~seed ~seconds ~obs:Obs.null in
  check_band first jobs;
  let ok, walls, vgflops, overhead = summary ~sims ~first ~jobs in
  let failed = List.length sims - List.length ok in
  (* windows of whole passes, each weighing the jobs alike *)
  let ws = List.map (List.map (fun s -> s.wall)) (group ~index:(fun s -> s.job.pass) ok) in
  let tail q = fastest_time (fun w -> ms (quantile q w)) ws in
  {
    attempted = List.length sims;
    failed;
    metrics =
      [
        (* set-up is building a pass's machines and configurations;
           one build takes some 15 µs, so the median over the run's
           passes, which spans the host's changes of pace *)
        ("setup_s", median builds);
        ("peak_rss_mb", peak_rss_mb ());
        ("latency_p50_ms", tail 0.5);
        ("latency_p90_ms", tail 0.9);
        ("latency_p99_ms", tail 0.99);
        ( "ops_per_s",
          fastest_rate (fun w -> ratio (float_of_int (List.length w)) (sum w)) ws );
        (* virtual: the simulated machine's rate, not the host's *)
        ("gflops", vgflops);
        ("ft_overhead_ratio", overhead);
      ];
    extra =
      [
        ( "failed_frac",
          ratio (float_of_int failed) (float_of_int (List.length sims)) );
        ("simulations", float_of_int (List.length sims));
        ("run.latency_p50_ms", ms (median walls));
      ];
  }

let run_traced ~seed ~seconds ~trace_path =
  let obs = Obs.create () in
  let jobs, sims, first, _ = loop ~seed ~seconds ~obs in
  check_band first jobs;
  let ok, walls, _, _ = summary ~sims ~first ~jobs in
  (* storm counts per storm simulation, over every pass *)
  let storm_stats =
    List.filter_map (fun s -> if s.job.storm then s.resilience else None) sims
  in
  let rsum f =
    ratio
      (float_of_int (List.fold_left (fun a st -> a + f st) 0 storm_stats))
      (float_of_int (List.length storm_stats))
  in
  let per_machine =
    List.map
      (fun (mname, _) ->
        ( "hetsim.sim_ms." ^ mname,
          ms (median (List.filter_map
                        (fun s -> if s.job.machine = mname then Some s.wall else None)
                        ok)) ))
      machines
  in
  let makespans =
    List.concat_map
      (fun (mname, _) ->
        List.map
          (fun (sname, _) ->
            ( Printf.sprintf "hetsim.makespan_s.%s.%s" mname sname,
              makespan first ~machine:mname ~scheme:sname ~n:headline_n ))
          schemes
        @ [
            ( Printf.sprintf "hetsim.overhead_pct.%s.enhanced" mname,
              100.
              *. (ratio
                    (makespan first ~machine:mname ~scheme:"enhanced" ~n:headline_n)
                    (makespan first ~machine:mname ~scheme:"no_ft" ~n:headline_n)
                 -. 1.) );
          ])
      machines
  in
  write_file trace_path (Obs.chrome_trace obs);
  let failed = List.length sims - List.length ok in
  {
    attempted = List.length sims;
    failed;
    metrics =
      per_machine @ makespans
      @ [
          ( "hetsim.engine_ops_per_s",
            ratio
              (float_of_int (List.fold_left (fun a s -> a + s.engine_ops) 0 ok))
              (sum walls) );
          ( "hetsim.retries",
            rsum (fun st ->
                st.Hetsim.Resilient.gpu.Hetsim.Resilient.retries
                + st.Hetsim.Resilient.cpu.Hetsim.Resilient.retries) );
          ( "hetsim.quarantines",
            rsum (fun st ->
                match st.Hetsim.Resilient.gpu.Hetsim.Resilient.quarantined_at with
                | Some _ -> 1
                | None -> 0) );
          ("hetsim.resplits", rsum (fun st -> st.Hetsim.Resilient.resplits));
        ];
    extra = [];
  }
