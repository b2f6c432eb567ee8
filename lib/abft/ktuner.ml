type estimate = { k : int; fault_free_s : float; expected_s : float }

let expected_time ~base_s ~verify_cost_s ~error_rate ?(recovery_factor = 1.0) k =
  if k < 1 then invalid_arg "Ktuner.expected_time: k must be >= 1";
  if error_rate < 0. then invalid_arg "Ktuner.expected_time: negative rate";
  let fault_free_s = base_s +. verify_cost_s k in
  let slip = float_of_int (k - 1) /. float_of_int k in
  let expected_s =
    fault_free_s
    *. (1. +. (error_rate *. fault_free_s *. slip *. recovery_factor))
  in
  { k; fault_free_s; expected_s }

let optimal_k ~base_s ~verify_cost_s ~error_rate ?(recovery_factor = 1.0)
    ?(k_max = 16) () =
  if k_max < 1 then invalid_arg "Ktuner.optimal_k: k_max must be >= 1";
  let best = ref (expected_time ~base_s ~verify_cost_s ~error_rate ~recovery_factor 1) in
  for k = 2 to k_max do
    let e = expected_time ~base_s ~verify_cost_s ~error_rate ~recovery_factor k in
    if e.expected_s < !best.expected_s then best := e
  done;
  !best

let verify_cost_model ~machine ~n ~b ~streams k =
  let gpu = machine.Hetsim.Machine.gpu in
  let fn = float_of_int n and fb = float_of_int b and fk = float_of_int k in
  (* Table V recalculation flops at interval k; BLAS-2 traffic is ~2
     bytes per flop (one fused pass per tile). The checksum updates ride
     the fused tile kernels and add no standalone traffic. *)
  let flops =
    (2. *. fn *. fn)
    +. (2. *. fn *. fn /. fk)
    +. (2. *. (fn ** 3.) /. (3. *. fb *. fk))
  in
  let bytes = 2. *. flops in
  let util = Hetsim.Device.aggregate_blas2_util gpu ~concurrent:streams in
  bytes /. (gpu.Hetsim.Device.mem_bandwidth_gbs *. 1e9 *. util)
