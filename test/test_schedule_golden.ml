(* Golden fingerprints of the three timing schedules (Cholesky, LU,
   QR). Every (machine, scheme, placement, balance, plan) point of a
   fixed grid is simulated and condensed to one line: makespan and
   every resilience counter (floats as exact hex), the rerun count, a
   digest of the engine's operation records and, for Cholesky, a digest
   of the printed logical trace. The lines must equal the committed
   fixture, so a refactor of the schedules that moves any virtual
   timestamp, any resilience draw or any trace op fails here.

   Nothing is marshalled: the fixture is plain text built from
   [%h]-printed floats, identical on every OCaml version.

   To regenerate after an intended schedule change, run the executable
   with SCHEDULE_GOLDEN_OUT set to a file path; it writes the computed
   lines there before checking them against the fixture:
     cd test && SCHEDULE_GOLDEN_OUT=fixtures/schedule_fingerprints.txt \
       dune exec ./test_schedule_golden.exe *)

module C = Cholesky

let fixture = "fixtures/schedule_fingerprints.txt"

let machines =
  [
    ("tardis", Hetsim.Machine.tardis, 5120);
    ("bulldozer64", Hetsim.Machine.bulldozer64, 10240);
    ( "tardis-storm",
      Hetsim.Machine.with_reliability
        ~gpu:(Machine_cli.storm_reliability ~rate:1.0)
        Hetsim.Machine.tardis,
      5120 );
  ]

let schemes =
  [
    ("no_ft", Abft.Scheme.No_ft);
    ("online", Abft.Scheme.Online);
    ("enhanced1", Abft.Scheme.enhanced ~k:1 ());
    ("enhanced3", Abft.Scheme.enhanced ~k:3 ());
    ("offline", Abft.Scheme.Offline);
  ]

let placements =
  [
    ("inline", C.Config.Gpu_inline);
    ("stream", C.Config.Gpu_stream);
    ("cpu", C.Config.Cpu_offload);
    ("auto", C.Config.Auto);
  ]

let balances =
  [
    ("off", None);
    ("static", Some Hetsim.Load_balancer.Static);
    ("adaptive", Some Hetsim.Load_balancer.Adaptive);
  ]

let plans =
  [
    ("clean", []);
    ( "storage52",
      [
        Fault.storage_error ~bit:52 ~iteration:1 ~block:(2, 1) ~element:(0, 0)
          ();
      ] );
    ( "gemm",
      [
        Fault.computing_error ~iteration:1 ~op:Fault.Gemm ~block:(2, 1)
          ~element:(0, 0) ();
      ] );
  ]

let fault_seed = 7
let hex = Printf.sprintf "%h"
let opt_hex = function None -> "-" | Some f -> hex f

let device (d : Hetsim.Resilient.device_stats) =
  let {
    Hetsim.Resilient.submitted;
    completed;
    transient_faults;
    hangs;
    retries;
    backoff_s;
    quarantined_at;
    lost_at;
  } =
    d
  in
  Printf.sprintf "%d/%d/%d/%d/%d/%s/%s/%s" submitted completed
    transient_faults hangs retries (hex backoff_s) (opt_hex quarantined_at)
    (opt_hex lost_at)

let stats (s : Hetsim.Resilient.stats) =
  let {
    Hetsim.Resilient.cpu;
    gpu;
    corrupted_transfers;
    skipped_transfers;
    degraded_ops;
    degraded_at;
    reprobes;
    rejoins;
    resplits;
  } =
    s
  in
  Printf.sprintf "cpu=%s gpu=%s xfer=%d skip=%d dops=%d dat=%s rp=%d rj=%d rs=%d"
    (device cpu) (device gpu) corrupted_transfers skipped_transfers
    degraded_ops (opt_hex degraded_at) reprobes rejoins resplits

let resource = function
  | None -> "-"
  | Some Hetsim.Engine.Cpu -> "cpu"
  | Some Hetsim.Engine.Gpu -> "gpu"
  | Some Hetsim.Engine.Gpu_spare -> "spare"
  | Some Hetsim.Engine.Link_h2d -> "h2d"
  | Some Hetsim.Engine.Link_d2h -> "d2h"

let records_digest eng =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (r : Hetsim.Engine.record) ->
      Printf.bprintf buf "%s|%s|%s|%h|%h\n" r.Hetsim.Engine.label
        r.Hetsim.Engine.phase
        (resource r.Hetsim.Engine.resource)
        r.Hetsim.Engine.start r.Hetsim.Engine.finish)
    (Hetsim.Engine.records eng);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let line ~makespan ~reruns ~resilience ~degraded ~engine ~trace =
  Printf.sprintf "makespan=%s reruns=%d degraded=%b ops=%d rec=%s %s%s"
    (hex makespan) reruns degraded
    (Hetsim.Engine.op_count engine)
    (records_digest engine) (stats resilience)
    (match trace with
    | None -> ""
    | Some t ->
        " trace="
        ^ Digest.to_hex
            (Digest.string (Format.asprintf "%a" C.Trace_op.pp_trace t)))

let gave_up = function
  | Hetsim.Resilient.Gave_up { attempts; stats = s; _ } ->
      Some (Printf.sprintf "gave_up attempts=%d %s" attempts (stats s))
  | _ -> None

let guard f =
  try f () with e -> ( match gave_up e with Some l -> l | None -> raise e)

let fingerprints () =
  let out = ref [] in
  List.iter
    (fun (mname, machine, n) ->
      List.iter
        (fun (sname, scheme) ->
          List.iter
            (fun (pname, opt2) ->
              List.iter
                (fun (bname, balance) ->
                  let cfg =
                    C.Config.make ~machine ~scheme ~opt2 ?balance ()
                  in
                  List.iter
                    (fun (plname, plan) ->
                      let key =
                        String.concat " "
                          [ mname; sname; pname; bname; plname ]
                      in
                      let chol =
                        guard (fun () ->
                            let r = C.Schedule.run ~plan ~fault_seed cfg ~n in
                            line ~makespan:r.C.Schedule.makespan
                              ~reruns:r.C.Schedule.reruns
                              ~resilience:r.C.Schedule.resilience
                              ~degraded:r.C.Schedule.degraded
                              ~engine:r.C.Schedule.engine
                              ~trace:(Some r.C.Schedule.trace))
                      in
                      let lu =
                        guard (fun () ->
                            let r =
                              Ftlu.Schedule_lu.run ~plan ~fault_seed cfg ~n
                            in
                            line ~makespan:r.Ftlu.Schedule_lu.makespan
                              ~reruns:r.Ftlu.Schedule_lu.reruns
                              ~resilience:r.Ftlu.Schedule_lu.resilience
                              ~degraded:r.Ftlu.Schedule_lu.degraded
                              ~engine:r.Ftlu.Schedule_lu.engine ~trace:None)
                      in
                      let qr =
                        guard (fun () ->
                            let r =
                              Ftqr.Schedule_qr.run ~plan ~fault_seed cfg ~m:n
                                ~n
                            in
                            line ~makespan:r.Ftqr.Schedule_qr.makespan
                              ~reruns:r.Ftqr.Schedule_qr.reruns
                              ~resilience:r.Ftqr.Schedule_qr.resilience
                              ~degraded:r.Ftqr.Schedule_qr.degraded
                              ~engine:r.Ftqr.Schedule_qr.engine ~trace:None)
                      in
                      out :=
                        ("qr " ^ key ^ " " ^ qr)
                        :: ("lu " ^ key ^ " " ^ lu)
                        :: ("cholesky " ^ key ^ " " ^ chol)
                        :: !out)
                    plans)
                balances)
            placements)
        schemes)
    machines;
  List.rev !out

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_fingerprints () =
  let got = fingerprints () in
  (match Sys.getenv_opt "SCHEDULE_GOLDEN_OUT" with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) got)
  | None -> ());
  let want = read_lines fixture in
  Alcotest.(check int) "grid size" (List.length want) (List.length got);
  List.iter2 (fun w g -> Alcotest.(check string) "fingerprint" w g) want got

let () =
  Alcotest.run "schedule_golden"
    [
      ( "fingerprints",
        [
          Alcotest.test_case "cholesky/lu/qr schedules match the fixture"
            `Quick test_fingerprints;
        ] );
    ]
