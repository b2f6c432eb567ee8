(* Golden fingerprints of the four numeric fault-tolerant drivers
   (inner-product Cholesky [Ft], right-looking Cholesky, LU and QR).
   Every (driver, scheme, plan) point of a fixed grid on 3x3-tile
   inputs is factored and condensed to one line: the outcome class,
   whether a gave-up run ended on a fail-stop, the residual (QR also the
   orthogonality) as exact hex, an MD5 of the factor bits, and the
   recovery counters. The lines must equal the committed fixture, so a
   refactor of the drivers that moves any factor bit, any counter or
   any recovery decision fails here.

   [Ft] runs three configurations: no snapshots, a snapshot every
   iteration (the rollback rung) and the end-of-run [final_sweep].
   [Ft] and [Right_looking] lines also carry the nine stats fields one
   by one; [Ft] lines add digests of the logical trace, the fired
   injections, the Obs span multiset and the [ft.*] counters. LU and QR
   lines carry [corrections + reconstructions] as one number.

   To regenerate after an intended numeric change, run the executable
   with NUMERIC_GOLDEN_OUT set to a file path; it writes the computed
   lines there before checking them against the fixture:
     cd test && NUMERIC_GOLDEN_OUT=fixtures/numeric_fingerprints.txt \
       dune exec ./test_numeric_golden.exe *)

open Matrix
module C = Cholesky

let fixture = "fixtures/numeric_fingerprints.txt"
let block = 8
let n = 3 * block
let hex = Printf.sprintf "%h"
let md5 s = Digest.to_hex (Digest.string s)

let schemes =
  [
    ("no_ft", Abft.Scheme.No_ft);
    ("online", Abft.Scheme.Online);
    ("enhanced1", Abft.Scheme.enhanced ~k:1 ());
    ("enhanced2", Abft.Scheme.enhanced ~k:2 ());
    ("offline", Abft.Scheme.Offline);
  ]

(* The drivers differ in which (iteration, block) an op writes, so each
   names its own targets for the per-op computing errors, the burst and
   the fail-stop. *)
type targets = {
  ops : (string * Fault.op * int * (int * int)) list;
      (* name, op, iteration, block of one computing error each *)
  burst : Fault.op * int * (int * int);
      (* two errors in one column: uncorrectable in place *)
  fail_stop : Fault.injection;
      (* corrupts the diagonal / panel just before the step that
         fail-stops on it *)
}

let set ~iteration ~op ~block ~element value =
  {
    Fault.iteration;
    window = Fault.In_computation op;
    block;
    element;
    kind = Fault.Value_set { value };
  }

let cholesky_targets =
  {
    ops =
      [
        ("syrk", Fault.Syrk, 1, (1, 1));
        ("gemm", Fault.Gemm, 1, (2, 1));
        ("trsm", Fault.Trsm, 1, (2, 1));
        ("potf2", Fault.Potf2, 1, (1, 1));
      ];
    burst = (Fault.Gemm, 1, (2, 1));
    fail_stop =
      set ~iteration:2 ~op:Fault.Syrk ~block:(2, 2) ~element:(3, 3) (-1e6);
  }

let right_looking_targets =
  {
    ops =
      [
        ("syrk", Fault.Syrk, 0, (1, 1));
        ("gemm", Fault.Gemm, 0, (2, 1));
        ("trsm", Fault.Trsm, 1, (2, 1));
        ("potf2", Fault.Potf2, 1, (1, 1));
      ];
    burst = (Fault.Gemm, 0, (2, 1));
    fail_stop =
      set ~iteration:1 ~op:Fault.Syrk ~block:(2, 2) ~element:(3, 3) (-1e6);
  }

let lu_targets =
  {
    ops =
      [
        ("syrk", Fault.Syrk, 1, (1, 1));
        ("gemm", Fault.Gemm, 1, (2, 1));
        ("trsm", Fault.Trsm, 1, (2, 1));
        ("potf2", Fault.Potf2, 1, (1, 1));
      ];
    burst = (Fault.Gemm, 1, (2, 1));
    fail_stop = set ~iteration:2 ~op:Fault.Syrk ~block:(2, 2) ~element:(0, 0) 0.;
  }

let qr_targets =
  {
    ops =
      [ ("gemm", Fault.Gemm, 2, (2, 1)); ("mgs", Fault.Potf2, 1, (1, 1)) ];
    burst = (Fault.Gemm, 2, (2, 1));
    fail_stop = set ~iteration:1 ~op:Fault.Gemm ~block:(1, 0) ~element:(2, 0) nan;
  }

(* (name, plan, max_restarts) *)
let plans t =
  let computing =
    List.map
      (fun (name, op, iteration, block) ->
        ( "computing-" ^ name,
          [ Fault.computing_error ~delta:1e3 ~iteration ~op ~block
              ~element:(2, 3) () ],
          3 ))
      t.ops
  in
  let burst =
    let op, iteration, block = t.burst in
    List.map
      (fun (row, delta) ->
        Fault.computing_error ~delta ~iteration ~op ~block ~element:(row, 1) ())
      [ (0, 5e3); (2, 1.7e3) ]
  in
  [ ("clean", [], 3) ]
  @ computing
  @ [
      ( "storage",
        [ Fault.storage_error ~bit:52 ~iteration:2 ~block:(2, 0)
            ~element:(1, 1) () ],
        3 );
      ( "overwhelm",
        [
          {
            Fault.iteration = 2;
            window = Fault.In_storage;
            block = (2, 0);
            element = (1, 1);
            kind = Fault.Value_set { value = 1e40 };
          };
        ],
        3 );
      ( "checksum",
        [ Fault.checksum_error ~bit:52 ~iteration:1 ~block:(2, 0)
            ~element:(0, 2) () ],
        3 );
      ( "update",
        [ Fault.update_error ~delta:1e3 ~iteration:1 ~op:Fault.Gemm
            ~block:(2, 1) ~element:(1, 2) () ],
        3 );
      ("burst", burst, 3);
      ("burst-norestart", burst, 0);
      ("fail-stop", [ t.fail_stop ], 3);
      ("fail-stop-norestart", [ t.fail_stop ], 0);
    ]

let bits mats =
  let buf = Buffer.create 8192 in
  List.iter
    (fun m ->
      Buffer.add_string buf (Printf.sprintf "%dx%d;" (Mat.rows m) (Mat.cols m));
      for i = 0 to Mat.rows m - 1 do
        for j = 0 to Mat.cols m - 1 do
          Buffer.add_int64_le buf (Int64.bits_of_float (Mat.get m i j))
        done
      done)
    mats;
  md5 (Buffer.contents buf)

let fired l =
  Printf.sprintf "%d:%s" (List.length l)
    (md5
       (String.concat ","
          (List.map
             (fun (f : Injector.fired) ->
               hex f.Injector.old_value ^ ">" ^ hex f.Injector.new_value)
             l)))

(* Outcome class plus the fail-stop flag of a gave-up run ("-" when the
   run did not give up). *)
let outcome_cols cls failstop = Printf.sprintf "outcome=%s fs=%s" cls failstop

let counters ~ver ~fixes ~unc ~fstops ~restarts =
  Printf.sprintf "ver=%d fixes=%d unc=%d fstops=%d restarts=%d" ver fixes unc
    fstops restarts

let chol_line (r : C.Ft.report) =
  let cls, fs =
    match r.C.Ft.outcome with
    | C.Ft.Success -> ("success", "-")
    | C.Ft.Silent_corruption -> ("silent", "-")
    | C.Ft.Gave_up reason ->
        ("gave_up", string_of_bool (C.Recovery.is_fail_stop reason))
  in
  let s = r.C.Ft.stats in
  String.concat " "
    [
      outcome_cols cls fs;
      "residual=" ^ hex r.C.Ft.residual;
      "factor=" ^ bits [ r.C.Ft.factor ];
      counters ~ver:s.C.Ft.verifications
        ~fixes:(s.C.Ft.corrections + s.C.Ft.reconstructions)
        ~unc:s.C.Ft.uncorrectable_events ~fstops:s.C.Ft.fail_stops
        ~restarts:s.C.Ft.restarts;
      Printf.sprintf "stats=%d/%d/%d/%d/%d/%d/%d/%d/%d" s.C.Ft.verifications
        s.C.Ft.corrections s.C.Ft.reconstructions s.C.Ft.checksum_repairs
        s.C.Ft.uncorrectable_events s.C.Ft.fail_stops s.C.Ft.rollbacks
        s.C.Ft.snapshots s.C.Ft.restarts;
      "fired=" ^ fired r.C.Ft.injections_fired;
    ]

(* Spans sorted into a multiset (pool fan-outs may emit them in any
   order across domains) plus the driver's own counters (the pool's
   depend on its size). *)
let obs_digest obs =
  let spans =
    List.map
      (fun (s : Obs.span) ->
        Printf.sprintf "%s/%s/%s" s.Obs.op s.Obs.phase
          (match s.Obs.tile with
          | None -> "-"
          | Some (i, c) -> Printf.sprintf "%d,%d" i c))
      (Obs.spans obs)
    |> List.sort compare
  in
  let counters =
    List.filter
      (fun (k, _) -> String.length k > 3 && String.sub k 0 3 = "ft.")
      (Obs.counters obs)
    |> List.sort compare
    |> List.map (fun (k, v) -> k ^ "=" ^ hex v)
  in
  md5 (String.concat ";" spans) ^ "/" ^ md5 (String.concat ";" counters)

let ft_lines () =
  let a = Spd.random_spd ~seed:1024 n in
  List.concat_map
    (fun (cname, snapshot_interval, final_sweep) ->
      List.concat_map
        (fun (sname, scheme) ->
          List.map
            (fun (pname, plan, max_restarts) ->
              let cfg =
                C.Config.make ~machine:Hetsim.Machine.testbench ~block ~scheme
                  ~max_restarts ~snapshot_interval ()
              in
              let obs = Obs.create () in
              let r = C.Ft.factor ~obs ~plan ~final_sweep cfg a in
              String.concat " "
                [
                  "ft"; cname; sname; pname; chol_line r;
                  "trace="
                  ^ md5 (Format.asprintf "%a" C.Trace_op.pp_trace r.C.Ft.trace);
                  "obs=" ^ obs_digest obs;
                ])
            (plans cholesky_targets))
        schemes)
    [ ("snap0", 0, false); ("snap1", 1, false); ("sweep", 0, true) ]

let right_looking_lines () =
  let a = Spd.random_spd ~seed:1024 n in
  List.concat_map
    (fun (sname, scheme) ->
      List.map
        (fun (pname, plan, max_restarts) ->
          let r = C.Right_looking.factor ~plan ~scheme ~block ~max_restarts a in
          String.concat " " [ "right_looking"; sname; pname; chol_line r ])
        (plans right_looking_targets))
    schemes

let lu_lines () =
  let a = Lapack.diag_dominant ~seed:31 n in
  List.concat_map
    (fun (sname, scheme) ->
      List.map
        (fun (pname, plan, max_restarts) ->
          let r = Ftlu.Ft_lu.factor ~plan ~scheme ~block ~max_restarts a in
          let cls, fs =
            match r.Ftlu.Ft_lu.outcome with
            | Ftlu.Ft_lu.Success -> ("success", "-")
            | Ftlu.Ft_lu.Silent_corruption -> ("silent", "-")
            | Ftlu.Ft_lu.Gave_up reason ->
                ("gave_up", string_of_bool (C.Recovery.is_fail_stop reason))
          in
          let s = r.Ftlu.Ft_lu.stats in
          String.concat " "
            [
              "lu"; sname; pname; outcome_cols cls fs;
              "residual=" ^ hex r.Ftlu.Ft_lu.residual;
              "factor=" ^ bits [ r.Ftlu.Ft_lu.l; r.Ftlu.Ft_lu.u ];
              counters ~ver:s.Ftlu.Ft_lu.verifications
                ~fixes:(s.Ftlu.Ft_lu.corrections + s.Ftlu.Ft_lu.reconstructions)
                ~unc:s.Ftlu.Ft_lu.uncorrectable_events
                ~fstops:s.Ftlu.Ft_lu.fail_stops ~restarts:s.Ftlu.Ft_lu.restarts;
              "fired=" ^ fired r.Ftlu.Ft_lu.injections_fired;
            ])
        (plans lu_targets))
    schemes

let qr_lines () =
  let a = Spd.random ~seed:17 n n in
  List.concat_map
    (fun (sname, scheme) ->
      List.map
        (fun (pname, plan, max_restarts) ->
          let r = Ftqr.Ft_qr.factor ~plan ~scheme ~block ~max_restarts a in
          let cls, fs =
            match r.Ftqr.Ft_qr.outcome with
            | Ftqr.Ft_qr.Success -> ("success", "-")
            | Ftqr.Ft_qr.Silent_corruption -> ("silent", "-")
            | Ftqr.Ft_qr.Gave_up reason ->
                ("gave_up", string_of_bool (C.Recovery.is_fail_stop reason))
          in
          let s = r.Ftqr.Ft_qr.stats in
          String.concat " "
            [
              "qr"; sname; pname; outcome_cols cls fs;
              "residual=" ^ hex r.Ftqr.Ft_qr.residual;
              "orthogonality=" ^ hex r.Ftqr.Ft_qr.orthogonality;
              "factor=" ^ bits [ r.Ftqr.Ft_qr.q; r.Ftqr.Ft_qr.r ];
              counters ~ver:s.Ftqr.Ft_qr.verifications
                ~fixes:(s.Ftqr.Ft_qr.corrections + s.Ftqr.Ft_qr.reconstructions)
                ~unc:s.Ftqr.Ft_qr.uncorrectable_events
                ~fstops:s.Ftqr.Ft_qr.fail_stops ~restarts:s.Ftqr.Ft_qr.restarts;
              "fired=" ^ fired r.Ftqr.Ft_qr.injections_fired;
            ])
        (plans qr_targets))
    schemes

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_fingerprints () =
  let got = ft_lines () @ right_looking_lines () @ lu_lines () @ qr_lines () in
  (match Sys.getenv_opt "NUMERIC_GOLDEN_OUT" with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) got)
  | None -> ());
  let want = read_lines fixture in
  Alcotest.(check int) "grid size" (List.length want) (List.length got);
  List.iter2 (fun w g -> Alcotest.(check string) "fingerprint" w g) want got

let () =
  Alcotest.run "numeric_golden"
    [
      ( "fingerprints",
        [
          Alcotest.test_case "ft/right-looking/lu/qr drivers match the fixture"
            `Quick test_fingerprints;
        ] );
    ]
