type placement = Auto | Gpu_inline | Gpu_stream | Cpu_offload

type t = {
  machine : Hetsim.Machine.t;
  block : int;
  scheme : Abft.Scheme.t;
  opt1_concurrent_recalc : bool;
  opt2_placement : placement;
  recalc_streams : int;
  tol : float;
  max_restarts : int;
  max_rollbacks : int;
  snapshot_interval : int;
  balance : Hetsim.Load_balancer.mode option;
  balance_interval : int;
}

let default =
  {
    machine = Hetsim.Machine.tardis;
    block = 0;
    scheme = Abft.Scheme.enhanced ();
    opt1_concurrent_recalc = true;
    opt2_placement = Auto;
    recalc_streams = 0;
    tol = Abft.Verify.default_tol;
    max_restarts = 3;
    max_rollbacks = 2;
    snapshot_interval = 0;
    balance = None;
    balance_interval =
      Hetsim.Load_balancer.default_config.Hetsim.Load_balancer.update_interval;
  }

let make ?(machine = Hetsim.Machine.tardis) ?(block = 0)
    ?(scheme = Abft.Scheme.enhanced ()) ?(opt1 = true) ?(opt2 = Auto)
    ?(recalc_streams = 0) ?(tol = Abft.Verify.default_tol) ?(max_restarts = 3)
    ?(max_rollbacks = 2) ?(snapshot_interval = 0) ?balance
    ?(balance_interval =
      Hetsim.Load_balancer.default_config.Hetsim.Load_balancer.update_interval)
    () =
  if snapshot_interval < 0 then
    invalid_arg
      (Printf.sprintf
         "Config.make: snapshot_interval must be >= 0 (0 disables periodic \
          snapshots), got %d"
         snapshot_interval);
  {
    machine;
    block;
    scheme;
    opt1_concurrent_recalc = opt1;
    opt2_placement = opt2;
    recalc_streams;
    tol;
    max_restarts;
    max_rollbacks;
    snapshot_interval;
    balance;
    balance_interval;
  }

let block_size t =
  if t.block > 0 then t.block else t.machine.Hetsim.Machine.default_block

let resolve_placement t ~n =
  match t.opt2_placement with
  | (Gpu_inline | Gpu_stream | Cpu_offload) as p -> p
  | Auto -> (
      let params =
        {
          Abft.Overhead_model.n;
          b = block_size t;
          k = Abft.Scheme.verification_interval t.scheme;
        }
      in
      match (Abft.Placement.decide t.machine params).Abft.Placement.choice with
      | Abft.Placement.Cpu_updates -> Cpu_offload
      | Abft.Placement.Gpu_updates -> Gpu_stream)

let effective_recalc_streams t =
  if not t.opt1_concurrent_recalc then 1
  else if t.recalc_streams > 0 then t.recalc_streams
  else t.machine.Hetsim.Machine.gpu.Hetsim.Device.max_concurrent_kernels

let divisor_block ?(target = 64) n =
  if n <= 0 then invalid_arg "Config.divisor_block: n must be positive";
  let rec best d acc =
    if d > min n target then acc else best (d + 1) (if n mod d = 0 then d else acc)
  in
  best 1 1

let validate t =
  if block_size t < 1 then Error "block size must be >= 1"
  else if t.recalc_streams < 0 then Error "recalc_streams must be >= 0"
  else if t.tol <= 0. then Error "tol must be positive"
  else if t.max_restarts < 0 then Error "max_restarts must be >= 0"
  else if t.max_rollbacks < 0 then Error "max_rollbacks must be >= 0"
  else if t.snapshot_interval < 0 then Error "snapshot_interval must be >= 0"
  else if t.balance_interval < 1 then Error "balance_interval must be >= 1"
  else Ok ()

let placement_name = function
  | Auto -> "auto"
  | Gpu_inline -> "gpu-inline"
  | Gpu_stream -> "gpu-stream"
  | Cpu_offload -> "cpu"

let balancer t =
  match t.balance with
  | None -> None
  | Some mode ->
      Some
        (Hetsim.Load_balancer.create
           ~config:
             {
               Hetsim.Load_balancer.default_config with
               Hetsim.Load_balancer.mode;
               update_interval = t.balance_interval;
             }
           t.machine)

let balance_name t =
  match t.balance with
  | None -> "off"
  | Some m -> Hetsim.Load_balancer.mode_name m

let pp fmt t =
  Format.fprintf fmt
    "%s B=%d scheme=%a opt1=%b opt2=%s streams=%d balance=%s"
    t.machine.Hetsim.Machine.name (block_size t) Abft.Scheme.pp t.scheme
    t.opt1_concurrent_recalc
    (placement_name t.opt2_placement)
    (effective_recalc_streams t)
    (balance_name t)
