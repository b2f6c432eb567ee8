open Hetsim
module Config = Cholesky.Config
module Core = Cholesky.Sched_core

type result = Core.result = {
  makespan : float;
  gflops : float;
  reruns : int;
  engine : Engine.t;
  resilience : Resilient.stats;
  degraded : bool;
}

let run_pass (c : Core.t) ~g =
  let { Core.eng; res; b; with_ft; enhanced; online; offline; kk; _ } = c in
  let block_bytes = 8 * b * b in
  let verify = Core.verify c in
  let chk_update ~deps ~count =
    Core.chk_update c ~deps (Core.gemm_update c count)
  in
  let encode_ev =
    if with_ft then begin
      (* dual checksums: two single-side encodes per tile *)
      let ev =
        Resilient.submit_batch res ~phase:"chk-encode" ~streams:c.streams
          (List.init (2 * g * g) (fun _ -> c.recalc))
      in
      match c.placement with
      | Config.Cpu_offload ->
          Resilient.transfer res ~deps:[ ev ] ~phase:"chk-transfer" ~dir:`D2h
            (2 * g * g * c.d * b * 8)
      | _ -> ev
    end
    else Engine.ready
  in
  let prev_chk_ready = ref encode_ev in
  let prev_panels = ref Engine.ready in
  for j = 0 to g - 1 do
    let gate = j mod kk = 0 in
    (* ---- panel split (load balancer): one decision per iteration,
       shared by both panel sides ---- *)
    let rem = g - 1 - j in
    let cpu_rows =
      match
        Core.split c ~rows:rem
          ~kernel:
            (if j > 0 then Kernel.Gemm { m = rem * b; n = b; k = j * b }
             else Kernel.Trsm { order = b; nrhs = rem * b })
      with
      | None -> 0
      | Some s -> s.Load_balancer.cpu_rows
    in
    (* operand staging for the CPU slice: its panel rows' current state
       (j factored blocks + live tile per row), once per iteration *)
    let stage_ev =
      if cpu_rows > 0 then
        Resilient.transfer res ~deps:[ !prev_panels ] ~phase:"balance"
          ~dir:`D2h
          (cpu_rows * (j + 1) * block_bytes)
      else Engine.ready
    in
    let chk_updates = ref [] in
    let verify_deps = [ !prev_chk_ready ] in
    let lc_panel_ev =
      if with_ft && c.placement = Config.Cpu_offload && j > 0 then
        (* both panels of every previous iteration are update operands *)
        Resilient.transfer res ~deps:[ !prev_panels ] ~phase:"chk-transfer"
          ~dir:`D2h
          (2 * j * block_bytes)
      else Engine.ready
    in
    (* ---- lazy diagonal update; inputs always verified ---- *)
    let pre_diag =
      if enhanced then verify ~deps:verify_deps ~count:(2 + (2 * j))
      else Engine.ready
    in
    let diag_upd_ev =
      if j > 0 then
        Resilient.submit res ~deps:[ pre_diag ] ~phase:"compute" Engine.Gpu
          (Kernel.Gemm { m = b; n = b; k = j * b })
      else Engine.join eng [ pre_diag ]
    in
    if with_ft && j > 0 then
      chk_updates :=
        chk_update ~deps:[ lc_panel_ev ] ~count:(2 * j) :: !chk_updates;
    let post_diag_upd =
      if online && j > 0 then verify ~deps:[ diag_upd_ev ] ~count:2
      else diag_upd_ev
    in
    (* ---- GETF2 on the CPU between the two transfers ---- *)
    let d2h_ev =
      Resilient.transfer res ~deps:[ post_diag_upd ] ~dir:`D2h block_bytes
    in
    let getf2_ev =
      Resilient.submit res ~deps:[ d2h_ev ] ~phase:"compute" Engine.Cpu
        (Kernel.Host_flops (2. /. 3. *. (float_of_int b ** 3.)))
    in
    if with_ft then
      (* the two triangular checksum transforms, tiny *)
      chk_updates := chk_update ~deps:[ getf2_ev ] ~count:2 :: !chk_updates;
    let h2d_ev =
      Resilient.transfer res ~deps:[ getf2_ev ] ~dir:`H2d block_bytes
    in
    if online then ignore (verify ~deps:[ getf2_ev ] ~count:2);
    (* ---- panels ---- *)
    if j < g - 1 then begin
      let panel_evs = ref [] in
      List.iter
        (fun _side ->
          (* lazy update of the panel, K-gated pre-read verification of
             the panel tiles (both sides) and the older factored tiles *)
          let pre =
            if enhanced && gate then
              verify ~deps:verify_deps ~count:(rem * (2 + j))
            else Engine.ready
          in
          let upd_ev =
            if j > 0 then
              (Core.compute_cut c ~gpu_deps:[ pre ] ~cpu_deps:[ pre; stage_ev ]
                 ~rows:rem ~cpu_rows
                 (fun rows -> Kernel.Gemm { m = rows * b; n = b; k = j * b }))
                .all
            else Engine.join eng [ pre ]
          in
          if with_ft && j > 0 then
            chk_updates :=
              chk_update ~deps:[ lc_panel_ev ] ~count:(2 * rem * j)
              :: !chk_updates;
          if online && j > 0 then
            ignore (verify ~deps:[ upd_ev ] ~count:(2 * rem));
          (* solve against the factored diagonal; the CPU slice reads
             it straight from GETF2's host-resident output *)
          let pre_solve =
            if enhanced then verify ~deps:(h2d_ev :: verify_deps) ~count:2
            else Engine.ready
          in
          let solve_ev =
            (Core.compute_cut c
               ~gpu_deps:[ h2d_ev; upd_ev; pre_solve ]
               ~cpu_deps:[ getf2_ev; upd_ev; pre_solve; stage_ev ]
               ~rows:rem ~cpu_rows
               (fun rows -> Kernel.Trsm { order = b; nrhs = rows * b }))
              .all
          in
          panel_evs := solve_ev :: !panel_evs;
          if with_ft then
            chk_updates :=
              chk_update ~deps:[ solve_ev ] ~count:rem :: !chk_updates;
          if online then ignore (verify ~deps:[ solve_ev ] ~count:rem))
        [ `Col; `Row ];
      prev_panels := Engine.join eng !panel_evs
    end;
    prev_chk_ready := Engine.join eng !chk_updates
  done;
  if offline then
    (* end-of-run detect-only sweep over both sides of every tile *)
    ignore (verify ~deps:[ !prev_chk_ready ] ~count:(2 * g * g))

let run ?(plan = []) ?policy ?fault_seed cfg ~n =
  let c = Core.create ~name:"Schedule_lu.run" ?policy ?fault_seed cfg ~n in
  Core.finish c
    ~uncorrected:(Cholesky.Schedule.uncorrected c.scheme plan)
    ~flops:(2. *. (float_of_int n ** 3.) /. 3.)
    (fun () -> run_pass c ~g:(n / c.b))
