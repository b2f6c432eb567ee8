open Hetsim

type result = {
  makespan : float;
  gflops : float;
  reruns : int;
  trace : Trace_op.t list;
  engine : Engine.t;
  placement : Config.placement;
  resilience : Resilient.stats;
  degraded : bool;
}

let uncorrected scheme plan =
  let correctable (inj : Fault.injection) =
    match inj.Fault.window with
    | Fault.In_computation Fault.Potf2 ->
        (* The POTF2 checksum update consumes the (corrupted) factor,
           so the stored checksum chases the corruption: detected but
           not locatable. See Ft's documentation. *)
        false
    | Fault.In_computation _ -> Abft.Scheme.corrects_computing_errors scheme
    | Fault.In_storage | Fault.In_device ->
        (* a corrupted transfer materializes as wrong bits in the tile:
           storage-class, healed only by pre-read verification *)
        Abft.Scheme.corrects_storage_errors scheme
    | Fault.In_checksum | Fault.In_update _ -> (
        (* Checksum-side corruption never touches the factor. The
           replicated store repairs it at the next verification (or it
           is simply never consulted again); only Offline's detect-only
           end-of-run check still forces a rerun on the mismatch. *)
        match scheme with
        | Abft.Scheme.Offline -> false
        | Abft.Scheme.No_ft | Abft.Scheme.Online | Abft.Scheme.Enhanced _ ->
            true)
    | Fault.In_solver _ ->
        (* Solver windows never fire during a factorization pass; the
           timing simulation has nothing to rerun for them. *)
        true
  in
  List.filter (fun inj -> not (correctable inj)) plan

let trsm_update_kernel (c : Sched_core.t) count =
  Kernel.Trsm { order = c.b; nrhs = c.d * count }

(* One simulated pass; returns its logical trace. *)
let run_pass (c : Sched_core.t) ~g =
  let { Sched_core.eng; res; b; with_ft; enhanced; online; offline; kk; _ } =
    c
  in
  let block_bytes = 8 * b * b in
  let trace = ref [] in
  let emit op = trace := op :: !trace in
  (* A verification pass over [blocks], recorded in the logical trace.
     Returns the event the consuming kernel must wait for. *)
  let verify ~j ~point ~deps blocks =
    emit (Trace_op.Verify { j; point; blocks });
    Sched_core.verify c ~deps ~count:(List.length blocks)
  in
  (* Initial encoding: one recalc-shaped pass over every lower tile. *)
  let encode_ev =
    if with_ft then begin
      emit Trace_op.Encode;
      let nblocks = g * (g + 1) / 2 in
      let ev =
        Engine.submit_batch eng ~phase:"chk-encode" ~streams:c.streams
          (List.init nblocks (fun _ -> c.recalc))
      in
      match c.placement with
      | Config.Cpu_offload ->
          (* checksums live host-side: initial download (§VI 6a). *)
          Engine.transfer eng ~deps:[ ev ] ~phase:"chk-transfer" ~dir:`D2h
            (nblocks * c.d * b * 8)
      | _ -> ev
    end
    else Engine.ready
  in
  (* cumulative join of every checksum update issued in earlier
     iterations *)
  let prev_chk_ready = ref encode_ev in
  (* CPU placement: join of every factored-panel download through
     iteration j-2 — those blocks had at least one full iteration of
     link slack. *)
  let lc_hist = ref Engine.ready in
  (* the priority block L(j, j-1), shipped first after TRSM(j-1)
     because the very next iteration's updates consume it *)
  let lc_last_priority = ref Engine.ready in
  (* the rest of TRSM(j-1)'s panel — needed from iteration j+1 on *)
  let lc_last_bulk = ref Engine.ready in
  (* completion of the previous iteration's whole panel solve — the
     producer of the pivot row the CPU slice reads *)
  let prev_trsm = ref Engine.ready in
  (* bottom block-rows of the trailing set currently host-resident
     under a balanced split; ownership changes are charged as
     migration transfers *)
  let cpu_owned = ref 0 in
  (* the Degraded trace op is recorded once per pass *)
  let degraded_emitted = ref false in
  for j = 0 to g - 1 do
    emit (Trace_op.Iteration_start j);
    (* ---- trailing-update split (load balancer) ---- *)
    let trail = g - 1 - j in
    let split =
      Sched_core.split c ~rows:trail
        ~kernel:
          (if Sets.gemm_exists ~grid:g ~j then
             Kernel.Gemm { m = trail * b; n = b; k = j * b }
           else Kernel.Trsm { order = b; nrhs = trail * b })
    in
    let cpu_rows =
      match split with
      | None -> 0
      | Some s ->
          if s.Load_balancer.resplit then
            emit
              (Trace_op.Rebalance
                 {
                   j;
                   gpu_rows = s.Load_balancer.gpu_rows;
                   cpu_rows = s.Load_balancer.cpu_rows;
                 });
          s.Load_balancer.cpu_rows
    in
    (* Ownership migration: a block-row changing sides carries its
       current row state — the j factored panel blocks plus the live
       trailing tile — over the link once, after the solve that last
       touched it. Rows that stay put pay nothing. *)
    let migrate_ev =
      match split with
      | None -> Engine.ready
      | Some _ ->
          let owned = min !cpu_owned trail in
          let delta = cpu_rows - owned in
          cpu_owned := cpu_rows;
          if delta = 0 then Engine.ready
          else begin
            Obs.incr c.obs
              ~by:(float_of_int (abs delta))
              "balance.migrated_rows";
            let bytes = abs delta * (j + 1) * block_bytes in
            let dir = if delta > 0 then `D2h else `H2d in
            Resilient.transfer res ~deps:[ !prev_trsm ] ~phase:"balance" ~dir
              bytes
          end
    in
    (* The CPU slice multiplies against the pivot row L(j, 0..j-1),
       produced device-side by the previous iteration's panel solve. *)
    let pivot_ev =
      if cpu_rows > 0 && j > 0 then
        Resilient.transfer res ~deps:[ !prev_trsm ] ~phase:"balance"
          ~dir:`D2h (j * block_bytes)
      else Engine.ready
    in
    let gate = Sets.k_gate ~k:kk ~j in
    let chk_updates = ref [] in
    (* Checksum update of one op class, recorded in the trace and in
       this iteration's update join. *)
    let chk_update ~deps kernel op =
      let u = Sched_core.chk_update c ~deps kernel in
      emit op;
      chk_updates := u :: !chk_updates;
      u
    in
    (* Verification compares against stored checksums, so each verify
       point waits for the updates that touched exactly its operands:
       all earlier-iteration updates (cumulative [prior_chk]), plus the
       specific same-iteration update events named per point below. *)
    let prior_chk = !prev_chk_ready in
    (* For CPU placement, this iteration's updates need the LC row
       blocks host-side: everything through iteration j-2 plus the
       priority block from j-1 (see the [lc_*] refs). *)
    let lc_panel_ev =
      if with_ft && c.placement = Config.Cpu_offload then
        Engine.join eng [ !lc_hist; !lc_last_priority ]
      else Engine.ready
    in
    (* ---- SYRK ---- *)
    let syrk_ev, syrk_chk_ev =
      if Sets.syrk_exists ~j then begin
        let pre =
          if enhanced then
            verify ~j ~point:Trace_op.Pre_syrk ~deps:[ prior_chk ]
              (Sets.pre_syrk ~j)
          else Engine.ready
        in
        let ev =
          Resilient.submit res ~deps:[ pre ] ~phase:"compute" Engine.Gpu
            (Kernel.Syrk { n = b; k = j * b })
        in
        emit (Trace_op.Syrk j);
        let syrk_chk =
          if with_ft then
            chk_update ~deps:[ lc_panel_ev ] (Sched_core.gemm_update c j)
              (Trace_op.Chk_syrk j)
          else Engine.ready
        in
        if online then
          ignore
            (verify ~j ~point:Trace_op.Post_syrk
               ~deps:[ ev; syrk_chk; prior_chk ]
               (Sets.post_syrk ~j));
        (ev, syrk_chk)
      end
      else (Engine.ready, Engine.ready)
    in
    (* ---- diagonal block to host (verified first under Enhanced) ---- *)
    let pre_potf2_ev =
      if enhanced then
        verify ~j ~point:Trace_op.Pre_potf2
          ~deps:[ syrk_ev; prior_chk; syrk_chk_ev ]
          (Sets.pre_potf2 ~j)
      else Engine.ready
    in
    let d2h_ev =
      Resilient.transfer res ~deps:[ syrk_ev; pre_potf2_ev ] ~dir:`D2h
        block_bytes
    in
    emit (Trace_op.D2h_diag j);
    (* ---- GEMM ---- *)
    let gemm, gemm_chk_ev =
      if Sets.gemm_exists ~grid:g ~j then begin
        let pre =
          if enhanced && gate then
            verify ~j ~point:Trace_op.Pre_gemm ~deps:[ prior_chk ]
              (Sets.pre_gemm ~grid:g ~j)
          else Engine.ready
        in
        let cut =
          Sched_core.compute_cut c ~gpu_deps:[ pre ]
            ~cpu_deps:[ pre; pivot_ev; migrate_ev ]
            ~rows:trail ~cpu_rows
            (fun rows -> Kernel.Gemm { m = rows * b; n = b; k = j * b })
        in
        emit (Trace_op.Gemm j);
        let gemm_chk =
          if with_ft then
            chk_update ~deps:[ lc_panel_ev ]
              (Sched_core.gemm_update c (trail * j))
              (Trace_op.Chk_gemm j)
          else Engine.ready
        in
        if online then
          ignore
            (verify ~j ~point:Trace_op.Post_gemm
               ~deps:[ cut.all; gemm_chk; prior_chk ]
               (Sets.post_gemm ~grid:g ~j));
        (cut, gemm_chk)
      end
      else
        let idle = Engine.ready in
        ({ Sched_core.gpu = idle; cpu = idle; all = idle }, Engine.ready)
    in
    (* ---- POTF2 on the CPU, overlapping the GEMM ---- *)
    let potf2_ev =
      Resilient.submit res ~deps:[ d2h_ev ] ~phase:"compute" Engine.Cpu
        (Kernel.Potf2 { n = b })
    in
    emit (Trace_op.Potf2 j);
    let chk_potf2_ev =
      if with_ft then
        (* Algorithm 2 is tiny; it runs where the factored block lives
           (the CPU), or inline per placement for the GPU variants. *)
        chk_update ~deps:[ potf2_ev ] (trsm_update_kernel c 1)
          (Trace_op.Chk_potf2 j)
      else Engine.ready
    in
    if online then
      ignore
        (verify ~j ~point:Trace_op.Post_potf2
           ~deps:[ potf2_ev; chk_potf2_ev; prior_chk ]
           (Sets.post_potf2 ~j));
    (* ---- factored block back to the device ---- *)
    let h2d_ev =
      Resilient.transfer res ~deps:[ potf2_ev ] ~dir:`H2d block_bytes
    in
    emit (Trace_op.H2d_diag j);
    (* ---- TRSM ---- *)
    if Sets.trsm_exists ~grid:g ~j then begin
      let pre =
        if enhanced && gate then
          verify ~j ~point:Trace_op.Pre_trsm
            ~deps:[ h2d_ev; gemm.all; prior_chk; chk_potf2_ev; gemm_chk_ev ]
            (Sets.pre_trsm ~grid:g ~j)
        else Engine.ready
      in
      (* each side solves exactly the rows whose update it owns; the
         CPU side reads the factored diagonal straight from POTF2's
         host-resident output, no h2d round-trip *)
      let ev =
        (Sched_core.compute_cut c
           ~gpu_deps:[ h2d_ev; gemm.gpu; pre ]
           ~cpu_deps:[ potf2_ev; gemm.cpu; pre; migrate_ev ]
           ~rows:trail ~cpu_rows
           (fun rows -> Kernel.Trsm { order = b; nrhs = rows * b }))
          .all
      in
      prev_trsm := ev;
      emit (Trace_op.Trsm j);
      if with_ft && c.placement = Config.Cpu_offload then begin
        (* stream the freshly factored panel to the host (§VI 6b),
           next iteration's LC block first *)
        let priority =
          Resilient.transfer res ~deps:[ ev ] ~phase:"chk-transfer" ~dir:`D2h
            block_bytes
        in
        let bulk =
          if g - 2 - j > 0 then
            Resilient.transfer res ~deps:[ ev ] ~phase:"chk-transfer" ~dir:`D2h
              ((g - 2 - j) * block_bytes)
          else Engine.ready
        in
        lc_hist :=
          Engine.join eng [ !lc_hist; !lc_last_priority; !lc_last_bulk ];
        lc_last_priority := priority;
        lc_last_bulk := bulk
      end;
      let trsm_chk =
        if with_ft then
          chk_update ~deps:[ chk_potf2_ev; h2d_ev ] (trsm_update_kernel c trail)
            (Trace_op.Chk_trsm j)
        else Engine.ready
      in
      if online then
        ignore
          (verify ~j ~point:Trace_op.Post_trsm
             ~deps:[ ev; trsm_chk; prior_chk ]
             (Sets.post_trsm ~grid:g ~j))
    end;
    prev_chk_ready := Engine.join eng (prior_chk :: !chk_updates);
    if Resilient.degraded res && not !degraded_emitted then begin
      degraded_emitted := true;
      emit (Trace_op.Degraded j)
    end
  done;
  (* ---- Offline-ABFT's end-of-run verification ---- *)
  if offline then begin
    let blocks = Sets.all_lower ~grid:g in
    emit (Trace_op.Final_verify blocks);
    ignore
      (Sched_core.verify c ~deps:[ !prev_chk_ready ]
         ~count:(List.length blocks))
  end;
  List.rev !trace

let run ?(plan = []) ?d ?policy ?fault_seed ?obs cfg ~n =
  let c =
    Sched_core.create ~name:"Schedule.run" ?d ?policy ?fault_seed ?obs cfg ~n
  in
  let trace = ref [] in
  let { Sched_core.makespan; gflops; reruns; engine; resilience; degraded } =
    Sched_core.finish c
      ~uncorrected:(uncorrected c.scheme plan)
      ~flops:(float_of_int n ** 3. /. 3.)
      (fun () -> trace := run_pass c ~g:(n / c.b))
  in
  {
    makespan;
    gflops;
    reruns;
    trace = !trace;
    engine;
    placement = c.placement;
    resilience;
    degraded;
  }
