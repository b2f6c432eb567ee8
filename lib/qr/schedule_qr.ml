open Hetsim
module Core = Cholesky.Sched_core

type result = Core.result = {
  makespan : float;
  gflops : float;
  reruns : int;
  engine : Engine.t;
  resilience : Resilient.stats;
  degraded : bool;
}

(* QR differs from Cholesky in one classification: the MGS (Potf2)
   window is an ordinary post-update error because the checksum is
   transformed together with the data. *)
let uncorrected scheme plan =
  Cholesky.Schedule.uncorrected scheme plan
  |> List.filter (fun (inj : Fault.injection) ->
         match inj.Fault.window with
         | Fault.In_computation Fault.Potf2 ->
             not (Abft.Scheme.corrects_computing_errors scheme)
         | _ -> true)

(* A panel verification is one rectangular recalc kernel (m x b fused
   pass) per panel side; [Core.create ~panel_rows:m] sets that up. *)
let run_pass (c : Core.t) ~m ~nb =
  let { Core.eng; res; b; with_ft; enhanced; online; offline; kk; _ } = c in
  let fb = float_of_int b in
  let verify = Core.verify c in
  let chk_update ~deps flops =
    Core.chk_update c ~deps (Kernel.Host_flops flops)
  in
  let encode_ev =
    if with_ft then
      Resilient.submit_batch res ~phase:"chk-encode" ~streams:c.streams
        (List.init nb (fun _ -> c.recalc))
    else Engine.ready
  in
  let prev_chk_ready = ref encode_ev in
  (* panel rows in block-row units, the balancer's splitting grain *)
  let rblocks = max 1 (m / b) in
  for j = 0 to nb - 1 do
    let gate = j mod kk = 0 in
    let chk_updates = ref [] in
    let prior_chk = !prev_chk_ready in
    (* ---- projection split (load balancer): one decision per
       iteration, shared by all j projections of this panel ---- *)
    let cpu_m =
      match
        Core.split c ~rows:rblocks ~kernel:(Kernel.Gemm { m; n = b; k = b })
      with
      | None -> 0
      | Some s -> if j = 0 then 0 else min m (s.Load_balancer.cpu_rows * b)
    in
    (* stage the CPU-owned slice of the live panel to the host once;
       it stays there across this iteration's projections *)
    let stage_ev =
      if cpu_m > 0 then
        Resilient.transfer res ~deps:[ prior_chk ] ~phase:"balance" ~dir:`D2h
          (cpu_m * b * 8)
      else Engine.ready
    in
    (* block projections: per previous panel k, a pre-read verify of
       both operands (K-gated), one projection GEMM pair, a checksum
       update, and (Online) a post verify. *)
    let last = ref Engine.ready in
    for _k = 0 to j - 1 do
      let pre =
        if enhanced && gate then verify ~deps:[ prior_chk; !last ] ~count:2
        else Engine.join eng [ !last ]
      in
      (* R_kj = Qk^T Aj (2 m b^2) then Aj -= Qk Rkj (2 m b^2) *)
      let ev =
        Resilient.submit res ~deps:[ pre ] ~phase:"compute" Engine.Gpu
          (Kernel.Gemm { m = b; n = b; k = m })
      in
      (* the CPU slice applies Rkj to its host-resident rows; Rkj
         itself is tiny and rides a small d2h hop *)
      let r_ev =
        if cpu_m > 0 then
          Resilient.transfer res ~deps:[ ev ] ~phase:"balance" ~dir:`D2h
            (b * b * 8)
        else Engine.ready
      in
      let ev =
        (Core.compute_cut c ~gpu_deps:[ ev ] ~cpu_deps:[ r_ev; stage_ev ]
           ~rows:m ~cpu_rows:cpu_m
           (fun rows -> Kernel.Gemm { m = rows; n = b; k = b }))
          .all
      in
      if with_ft then
        chk_updates :=
          chk_update ~deps:[ ev ] (4. *. float_of_int c.d *. fb *. fb)
          :: !chk_updates;
      last := if online then verify ~deps:[ ev ] ~count:1 else ev
    done;
    (* the CPU-owned slice migrates back before the (GPU) in-panel MGS *)
    let back_ev =
      if cpu_m > 0 then
        Resilient.transfer res ~deps:[ !last ] ~phase:"balance" ~dir:`H2d
          (cpu_m * b * 8)
      else Engine.ready
    in
    (* in-panel MGS: ~2 m b^2 flops of BLAS-1/2, bandwidth-bound *)
    let pre_mgs =
      if enhanced then verify ~deps:[ prior_chk; !last; back_ev ] ~count:1
      else Engine.join eng [ !last; back_ev ]
    in
    let mgs_ev =
      Resilient.submit res ~deps:[ pre_mgs ] ~phase:"compute" Engine.Gpu
        (Kernel.Gemv { m = m * b; n = b })
    in
    if with_ft then
      chk_updates :=
        chk_update ~deps:[ mgs_ev ] (2. *. float_of_int c.d *. fb *. fb)
        :: !chk_updates;
    if online then ignore (verify ~deps:[ mgs_ev ] ~count:1);
    prev_chk_ready := Engine.join eng (prior_chk :: !chk_updates)
  done;
  if offline then ignore (verify ~deps:[ !prev_chk_ready ] ~count:nb)

let run ?(plan = []) ?policy ?fault_seed cfg ~m ~n =
  if n <= 0 || m < n then invalid_arg "Schedule_qr.run: need m >= n > 0";
  let c =
    Core.create ~name:"Schedule_qr.run" ~panel_rows:m ?policy ?fault_seed cfg ~n
  in
  let fm = float_of_int m and fn = float_of_int n in
  Core.finish c
    ~uncorrected:(uncorrected c.scheme plan)
    ~flops:((2. *. fm *. fn *. fn) -. (2. *. (fn ** 3.) /. 3.))
    (fun () -> run_pass c ~m ~nb:(n / c.b))
