(* soak-storm: a closed loop of seeded fault campaigns at small tiles
   (grid 4–8, block 16–32). Six factorization families run through
   Ft.factor (Enhanced k=1, snapshots on); solver-storm campaigns run
   through Cg.solve. Each campaign is paired with an unprotected clean
   run of the same input, the base of its overhead ratio. *)

open Matrix
open Common
module C = Cholesky
module Cg = Solvers.Cg
module Pool = Parallel.Pool

let families =
  Campaign.
    [|
      Mixed;
      Burst;
      Anchor;
      Checksum_storm;
      Storage_heavy;
      Compute_heavy;
      Solver_storm;
    |]

let grids = [| 4; 5; 6; 7; 8 |]
let blocks = [| 16; 24; 32 |]
let faults = 3

let protected_config ~block =
  C.Config.make ~machine:Hetsim.Machine.testbench ~block
    ~scheme:(Abft.Scheme.enhanced ~k:1 ())
    ~max_restarts:3 ~max_rollbacks:2 ~snapshot_interval:2 ()

let bare_config ~block =
  C.Config.make ~machine:Hetsim.Machine.testbench ~block
    ~scheme:Abft.Scheme.No_ft ()

(* The solver cadence varies with the campaign so every rung stays
   reachable: a third run without checkpoints. *)
let protected_cg id =
  let verify_interval, checkpoint_interval =
    match id mod 3 with 0 -> (2, 0) | 1 -> (2, 2) | _ -> (4, 4)
  in
  Cg.config ~rtol:1e-9 ~verify_interval ~checkpoint_interval ~max_rollbacks:2
    ~max_restarts:3 ()

let bare_cg = Cg.config ~rtol:1e-9 ~verify_interval:0 ()

type case = { id : int; family : Campaign.family; grid : int; block : int }

(* Families and shapes cycle in a fixed order, so every run weighs
   them alike; the seed draws the inputs and every fault plan. *)
let case id =
  let nf = Array.length families and nb = Array.length blocks in
  let shape = id / nf mod (Array.length grids * nb) in
  {
    id;
    family = families.(id mod nf);
    grid = grids.(shape / nb);
    block = blocks.(shape mod nb);
  }

let plan ~seed c =
  Campaign.plan c.family ~seed:(seed + (7919 * c.id)) ~grid:c.grid
    ~block:c.block ~count:faults

(* pristine inputs per shape *)
type input = { a : Mat.t; rhs : Vec.t }
type env = { pool : Pool.t; inputs : (int * int, input) Hashtbl.t }

(* Set-up is the default pool, one lane (at 16–32 tiles fan-out costs
   more than it saves), and the pristine inputs of every shape. *)
let setup ~seed =
  let pool = Pool.default () in
  let inputs = Hashtbl.create 16 in
  Array.iter
    (fun grid ->
      Array.iter
        (fun block ->
          let n = grid * block in
          Hashtbl.replace inputs (grid, block)
            {
              a = Spd.random_spd ~seed:(seed + n) n;
              rhs = Array.init n (fun i -> 1. +. (float_of_int (i mod 7) /. 7.));
            })
        blocks)
    grids;
  { pool; inputs }

(* one protected factorization and one protected solve *)
let warm_up env =
  let w = Hashtbl.find env.inputs (4, 16) in
  ignore (C.Ft.factor ~pool:env.pool (protected_config ~block:16) w.a : C.Ft.report);
  ignore
    (Cg.solve ~precond:(Cg.block_jacobi ~block:16 w.a) (protected_cg 1) w.a w.rhs
      : Cg.report)

(* What one campaign leaves behind: counts and times only, so a long
   run holds no factors. *)
type campaign = {
  c : case;
  wall : float;  (** the protected, fault-injected run *)
  base : float;  (** the unprotected clean run of the same input *)
  ok : bool;
  planned : int;
  fired : int;
  ft : C.Ft.stats option;
  cg : Cg.stats option;
  phases : ft_phases option;  (** traced factor campaigns *)
  tasks : float;
  inline_batches : float;
  spans : Obs.span list;  (** traced, first campaigns only *)
}

let run_case ~seed ~traced env c =
  let inp = Hashtbl.find env.inputs (c.grid, c.block) in
  let plan = plan ~seed c in
  let obs = if traced then Obs.create () else Obs.null in
  let what = Printf.sprintf "soak-storm campaign %d (%s)" c.id
      (Campaign.family_name c.family) in
  let mk ~wall ~base ~ok ~fired ft cg =
    {
      c;
      wall;
      base;
      ok;
      planned = List.length plan;
      fired;
      ft;
      cg;
      phases = (if traced && ft <> None then Some (ft_phases obs) else None);
      tasks = counter obs "pool.tasks";
      inline_batches = counter obs "pool.inline_batches";
      spans = (if c.id < 30 then Obs.spans obs else []);
    }
  in
  match c.family with
  | Campaign.Solver_storm ->
      (* a fresh preconditioner: the plan may corrupt its factor *)
      let precond () = Cg.block_jacobi ~block:c.block inp.a in
      let p = precond () in
      let r, wall =
        timed (fun () ->
            Obs.span obs ~op:"cg.solve" ~phase:"bench" (fun () ->
                Cg.solve ~obs ~plan ~precond:p (protected_cg c.id) inp.a inp.rhs))
      in
      let ok =
        match r.Cg.outcome with
        | Cg.Converged ->
            solve_ok inp.a r.Cg.x inp.rhs
            || (record_wrong "%s: converged to a wrong solution" what; false)
        | Cg.Gave_up _ -> false
      in
      let p = precond () in
      let _, base = timed (fun () -> Cg.solve ~precond:p bare_cg inp.a inp.rhs) in
      mk ~wall ~base ~ok ~fired:(List.length r.Cg.injections_fired) None
        (Some r.Cg.stats)
  | _ ->
      let r, wall =
        timed (fun () ->
            Obs.span obs ~op:"ft.factor" ~phase:"bench" (fun () ->
                C.Ft.factor ~pool:env.pool ~obs ~plan
                  (protected_config ~block:c.block) inp.a))
      in
      let ok = check_factor ~seed ~what inp.a r in
      let _, base =
        timed (fun () ->
            C.Ft.factor ~pool:env.pool (bare_config ~block:c.block) inp.a)
      in
      mk ~wall ~base ~ok ~fired:(List.length r.C.Ft.injections_fired)
        (Some r.C.Ft.stats) None

(* one full cycle of families × shapes *)
let cycle = Array.length families * Array.length grids * Array.length blocks

(* Whole cycles until the time is up, so every run weighs the cases
   alike. *)
let loop ~seed ~seconds ~traced env =
  let deadline = now () +. seconds in
  let setups = ref [] in
  let rec go env id acc =
    if id > 0 && id mod cycle = 0 && now () >= deadline then List.rev acc
    else
      let env =
        if id > 0 && id mod cycle = 0 then begin
          let env, s = timed (fun () -> setup ~seed) in
          setups := s :: !setups;
          env
        end
        else env
      in
      go env (id + 1) (run_case ~seed ~traced env (case id) :: acc)
  in
  let cs = go env 0 [] in
  (cs, !setups)

let order (c : campaign) = float_of_int (c.c.grid * c.c.block)
let fi = float_of_int

let run ~seed ~seconds =
  let env, first_setup_s = timed (fun () -> setup ~seed) in
  warm_up env;
  (* Set-up — the pool and the inputs of every shape — is rebuilt at the
     start of every cycle: the median over the run spans the host's
     changes of pace, where a fastest-of at start-up turned on the first
     half second alone. *)
  let cs, setups = loop ~seed ~seconds ~traced:false env in
  let setup_s = median (first_setup_s :: setups) in
  let good = List.filter (fun c -> c.ok) cs in
  let failed = List.length cs - List.length good in
  (* windows of whole cycles, each weighing the cases alike *)
  let ws = group ~index:(fun c -> c.c.id / cycle) cs in
  let walls w = List.map (fun c -> c.wall) w in
  let tail q = fastest_time (fun w -> ms (quantile q (walls w))) ws in
  let factored w = List.filter (fun c -> c.ok && c.ft <> None) w in
  {
    attempted = List.length cs;
    failed;
    metrics =
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb ());
        ("latency_p50_ms", tail 0.5);
        ("latency_p90_ms", tail 0.9);
        ("latency_p99_ms", tail 0.99);
        ( "ops_per_s",
          fastest_rate
            (fun w ->
              ratio (fi (List.length (List.filter (fun c -> c.ok) w))) (sum (walls w)))
            ws );
        ( "gflops",
          fastest_rate
            (fun w ->
              gflops
                ~flops:(sum (List.map (fun c -> (order c ** 3.) /. 3.) (factored w)))
                (sum (walls (factored w))))
            ws );
        ("ft_overhead_ratio", median (List.map (fun c -> c.wall /. c.base) cs));
      ];
    extra =
      [
        ("failed_frac", ratio (fi failed) (fi (List.length cs)));
        ("campaigns", fi (List.length cs));
        ("run.latency_p50_ms", ms (median (walls cs)));
      ];
  }

let run_traced ~seed ~seconds ~trace_path =
  let env = setup ~seed in
  warm_up env;
  let probes = layer_probes ~pool:env.pool ~seed ~b:32 ~n_resid:256 in
  let cs, _ = loop ~seed ~seconds ~traced:true env in
  let fts = List.filter_map (fun c -> Option.map (fun st -> (c, st)) c.ft) cs in
  let cgs = List.filter_map (fun c -> Option.map (fun st -> (c, st)) c.cg) cs in
  let nft = fi (max 1 (List.length fts)) and ncg = fi (max 1 (List.length cgs)) in
  let phases = List.filter_map (fun c -> c.phases) cs in
  let pmed f = median (List.map f phases) in
  let coverage =
    ratio (sum (List.map phases_total phases))
      (sum (List.map (fun (c, _) -> c.wall) fts))
  in
  let ft_total f = fi (List.fold_left (fun acc (_, st) -> acc + f st) 0 fts) in
  let cg_total f = fi (List.fold_left (fun acc (_, st) -> acc + f st) 0 cgs) in
  let iterations = cg_total (fun s -> s.Cg.iterations) in
  let successes = fi (List.length (List.filter (fun (c, _) -> c.ok) fts)) in
  write_file trace_path
    (Obs.chrome_trace_of_spans (List.concat_map (fun c -> c.spans) cs));
  let failed = List.length (List.filter (fun c -> not c.ok) cs) in
  {
    attempted = List.length cs;
    failed;
    metrics =
      probes
      @ [
          ("abft.encode_ms", ms (pmed (fun p -> p.encode_s)));
          ("abft.chk_update_ms", ms (pmed (fun p -> p.chk_update_s)));
          ("abft.compare_ms", ms (pmed (fun p -> p.compare_s)));
          ("abft.verify_ms", ms (pmed (fun p -> p.verify_s)));
          ("cholesky.compute_s", pmed (fun p -> p.compute_s));
          ("cholesky.residual_s", pmed (fun p -> p.residual_s));
          ("cholesky.recovery_s", pmed (fun p -> p.recovery_s));
          ("cholesky.init_s", pmed (fun p -> p.init_s));
          ("cholesky.span_coverage", coverage);
          ("cholesky.verifications", ft_total (fun s -> s.C.Ft.verifications) /. nft);
          ("cholesky.corrections", ft_total (fun s -> s.C.Ft.corrections) /. nft);
          ( "cholesky.reconstructions",
            ft_total (fun s -> s.C.Ft.reconstructions) /. nft );
          ( "cholesky.checksum_repairs",
            ft_total (fun s -> s.C.Ft.checksum_repairs) /. nft );
          ("cholesky.rollbacks", ft_total (fun s -> s.C.Ft.rollbacks) /. nft);
          ("cholesky.restarts", ft_total (fun s -> s.C.Ft.restarts) /. nft);
          ( "cholesky.useful_frac",
            ratio successes
              (nft +. ft_total (fun s -> s.C.Ft.restarts + s.C.Ft.rollbacks)) );
          ( "parallel.tasks",
            sum (List.map (fun (c, _) -> c.tasks) fts) /. nft );
          ( "parallel.inline_batches",
            sum (List.map (fun (c, _) -> c.inline_batches) fts) /. nft );
          ( "fault.fired_frac",
            ratio (fi (List.fold_left (fun a c -> a + c.fired) 0 cs))
              (fi (List.fold_left (fun a c -> a + c.planned) 0 cs)) );
          ("solvers.iterations", iterations /. ncg);
          ( "solvers.iter_ms",
            ms (ratio (sum (List.map (fun (c, _) -> c.wall) cgs)) iterations) );
          ( "solvers.verify_frac",
            ratio (cg_total (fun s -> s.Cg.verifications)) iterations );
          ("solvers.detections", cg_total (fun s -> s.Cg.detections) /. ncg);
          ("solvers.rollbacks", cg_total (fun s -> s.Cg.rollbacks) /. ncg);
          ("solvers.restarts", cg_total (fun s -> s.Cg.restarts) /. ncg);
          ("check.layer_sum_failed", if coverage_ok coverage then 0. else 1.);
        ];
    extra = [];
  }
