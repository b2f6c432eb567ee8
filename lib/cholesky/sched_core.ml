open Hetsim

type t = {
  scheme : Abft.Scheme.t;
  eng : Engine.t;
  res : Resilient.t;
  bal : Load_balancer.t option;
  obs : Obs.t;
  b : int;
  d : int;
  streams : int;
  placement : Config.placement;
  recalc : Kernel.t;
  upload : bool;
  with_ft : bool;
  enhanced : bool;
  online : bool;
  offline : bool;
  kk : int;
}

type result = {
  makespan : float;
  gflops : float;
  reruns : int;
  engine : Engine.t;
  resilience : Resilient.stats;
  degraded : bool;
}

let create ~name ?(d = 2) ?panel_rows ?policy ?(fault_seed = 0) ?obs cfg ~n =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg (name ^ ": " ^ e));
  let b = Config.block_size cfg in
  if n <= 0 || n mod b <> 0 then
    invalid_arg
      (Printf.sprintf
         "%s: n=%d must be a positive multiple of the block size %d" name n b);
  let scheme = cfg.Config.scheme in
  let with_ft = scheme <> Abft.Scheme.No_ft in
  let eng = Engine.create ~seed:fault_seed cfg.Config.machine in
  let bal = Config.balancer cfg in
  let res = Resilient.create ?policy ?balancer:bal ~seed:fault_seed ?obs eng in
  {
    scheme;
    eng;
    res;
    bal;
    obs = Option.value obs ~default:Obs.null;
    b;
    d;
    streams = Config.effective_recalc_streams cfg;
    placement =
      (if with_ft then Config.resolve_placement cfg ~n else Config.Gpu_inline);
    recalc =
      (match panel_rows with
      | None -> Kernel.Checksum_recalc { b; nchk = d }
      | Some m -> Kernel.Gemv { m; n = b });
    upload = Option.is_none panel_rows;
    with_ft;
    enhanced = (match scheme with Abft.Scheme.Enhanced _ -> true | _ -> false);
    online = scheme = Abft.Scheme.Online;
    offline = scheme = Abft.Scheme.Offline;
    kk = Abft.Scheme.verification_interval scheme;
  }

let verify t ~deps ~count : Engine.event =
  if count = 0 then Engine.join t.eng deps
  else begin
    let deps =
      if t.upload && t.placement = Config.Cpu_offload then
        [
          Resilient.transfer t.res ~deps ~phase:"chk-transfer" ~dir:`H2d
            (count * t.d * t.b * 8);
        ]
      else deps
    in
    let batch =
      Resilient.submit_batch t.res ~deps ~phase:"chk-recalc" ~streams:t.streams
        (List.init count (fun _ -> t.recalc))
    in
    Resilient.submit t.res ~deps:[ batch ] ~phase:"chk-compare" Engine.Gpu
      (Kernel.Checksum_compare { b = t.b * count; nchk = t.d })
  end

let gemm_update t count = Kernel.Gemm { m = t.d * count; n = t.b; k = t.b }

let chk_update t ~deps kernel : Engine.event =
  match t.placement with
  | Config.Auto -> assert false
  | Config.Gpu_inline ->
      Resilient.submit t.res ~deps ~phase:"chk-update" Engine.Gpu kernel
  | Config.Gpu_stream ->
      Resilient.submit_background t.res ~deps ~phase:"chk-update" kernel
  | Config.Cpu_offload ->
      Resilient.submit t.res ~deps ~phase:"chk-update" Engine.Cpu kernel

let split t ~kernel ~rows =
  match t.bal with
  | None -> None
  | Some bal ->
      let s = Load_balancer.tick bal ~kernel ~rows in
      Obs.observe t.obs "balance.gpu_share" s.Load_balancer.share;
      if s.Load_balancer.resplit then Obs.incr t.obs "balance.resplits";
      Some s

type cut = { gpu : Engine.event; cpu : Engine.event; all : Engine.event }

let compute_cut t ~gpu_deps ~cpu_deps ~rows ~cpu_rows kernel_of_rows =
  let submit deps dev rows =
    Resilient.submit t.res ~deps ~phase:"compute" dev (kernel_of_rows rows)
  in
  if cpu_rows = 0 then
    let ev = submit gpu_deps Engine.Gpu rows in
    { gpu = ev; cpu = Engine.ready; all = ev }
  else begin
    let gpu =
      if rows > cpu_rows then submit gpu_deps Engine.Gpu (rows - cpu_rows)
      else Engine.ready
    in
    let cpu = submit cpu_deps Engine.Cpu cpu_rows in
    { gpu; cpu; all = Engine.join t.eng [ gpu; cpu ] }
  end

let finish t ~uncorrected ~flops pass =
  pass ();
  (* A corrupted transfer landed wrong bits in device (or host) memory:
     for the timeline that is exactly an In_storage fault, so it forces
     a rerun on any scheme that cannot locate-and-correct storage
     errors. The resilient driver deliberately does not retry it. *)
  let transfer_faults =
    (Resilient.stats t.res).Resilient.corrupted_transfers > 0
    && not (Abft.Scheme.corrects_storage_errors t.scheme)
  in
  let reruns = if uncorrected <> [] || transfer_faults then 1 else 0 in
  if reruns > 0 then pass ();
  let makespan = Engine.makespan t.eng in
  {
    makespan;
    gflops = flops /. makespan /. 1e9;
    reruns;
    engine = t.eng;
    resilience = Resilient.stats t.res;
    degraded = Resilient.degraded t.res;
  }
