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

   A second test checks the end-of-run residual against a dense
   reference computed here, ‖F − A‖_F / max(1, ‖A‖_F) (QR adds
   ‖QᵀQ − I‖_F), over every run of the grid above plus a single-fault
   sweep: [Recovery.classify] must give the same outcome under both, and
   a reported value the probe screen did not clear must be the dense
   value bit for bit.

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

(* A finished run as the equivalence check sees it: the outcome and,
   per end-of-run check, the reported value beside the dense reference
   (QR: residual, then orthogonality). *)
type checked = {
  label : string;
  outcome : C.Recovery.outcome;
  pairs : (float * float) list;
}

let dense_residual a p =
  Mat.norm_fro (Mat.sub_mat p a) /. Float.max 1. (Mat.norm_fro a)

let chol_checked label a (r : C.Ft.report) =
  let l = r.C.Ft.factor in
  {
    label;
    outcome = r.C.Ft.outcome;
    pairs =
      [
        ( r.C.Ft.residual,
          dense_residual a (Blas3.gemm_alloc ~transb:Types.Trans l l) );
      ];
  }

let lu_checked label a (r : Ftlu.Ft_lu.report) =
  {
    label;
    outcome = r.Ftlu.Ft_lu.outcome;
    pairs =
      [
        ( r.Ftlu.Ft_lu.residual,
          dense_residual a (Blas3.gemm_alloc r.Ftlu.Ft_lu.l r.Ftlu.Ft_lu.u) );
      ];
  }

let qr_checked label a (r : Ftqr.Ft_qr.report) =
  let q = r.Ftqr.Ft_qr.q in
  let gram = Blas3.gemm_alloc ~transa:Types.Trans q q in
  {
    label;
    outcome = r.Ftqr.Ft_qr.outcome;
    pairs =
      [
        ( r.Ftqr.Ft_qr.residual,
          dense_residual a (Blas3.gemm_alloc q r.Ftqr.Ft_qr.r) );
        ( r.Ftqr.Ft_qr.orthogonality,
          Mat.norm_fro (Mat.sub_mat gram (Mat.identity (Mat.cols q))) );
      ];
  }

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
              ( String.concat " "
                  [
                    "ft"; cname; sname; pname; chol_line r;
                    "trace="
                    ^ md5
                        (Format.asprintf "%a" C.Trace_op.pp_trace r.C.Ft.trace);
                    "obs=" ^ obs_digest obs;
                  ],
                chol_checked (String.concat " " [ "ft"; cname; sname; pname ])
                  a r ))
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
          ( String.concat " " [ "right_looking"; sname; pname; chol_line r ],
            chol_checked (String.concat " " [ "right_looking"; sname; pname ])
              a r ))
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
          ( String.concat " "
            [
              "lu"; sname; pname; outcome_cols cls fs;
              "residual=" ^ hex r.Ftlu.Ft_lu.residual;
              "factor=" ^ bits [ r.Ftlu.Ft_lu.l; r.Ftlu.Ft_lu.u ];
              counters ~ver:s.Ftlu.Ft_lu.verifications
                ~fixes:(s.Ftlu.Ft_lu.corrections + s.Ftlu.Ft_lu.reconstructions)
                ~unc:s.Ftlu.Ft_lu.uncorrectable_events
                ~fstops:s.Ftlu.Ft_lu.fail_stops ~restarts:s.Ftlu.Ft_lu.restarts;
              "fired=" ^ fired r.Ftlu.Ft_lu.injections_fired;
            ],
            lu_checked (String.concat " " [ "lu"; sname; pname ]) a r ))
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
          ( String.concat " "
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
            ],
            qr_checked (String.concat " " [ "qr"; sname; pname ]) a r ))
        (plans qr_targets))
    schemes

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let grid_runs () =
  ft_lines () @ right_looking_lines () @ lu_lines () @ qr_lines ()

let test_fingerprints () =
  let got = List.map fst (grid_runs ()) in
  (match Sys.getenv_opt "NUMERIC_GOLDEN_OUT" with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) got)
  | None -> ());
  let want = read_lines fixture in
  Alcotest.(check int) "grid size" (List.length want) (List.length got);
  List.iter2 (fun w g -> Alcotest.(check string) "fingerprint" w g) want got

(* ---- classification equivalence: screened check vs dense reference ---- *)

let sweep_schemes =
  [
    ("online", Abft.Scheme.Online);
    ("enhanced1", Abft.Scheme.enhanced ~k:1 ());
    ("offline", Abft.Scheme.Offline);
  ]

let sweep_bits = [ 30; 38; 45; 52; 62 ]

(* One bit-flip per plan on a [grid]-tile input: a computing and an
   update error on every op target of [t] that fits the grid, a storage
   flip on the last block row's first tile just before the iteration
   that reads it, and a checksum-store flip. *)
let sweep_plans t ~grid =
  let fits (_, _, iteration, (i, c)) =
    iteration < grid && i < grid && c < grid
  in
  let ops = List.filter fits t.ops in
  let flip ~iteration ~window ~block ~element bit =
    { Fault.iteration; window; block; element; kind = Fault.Bit_flip { bit } }
  in
  List.concat_map
    (fun bit ->
      List.concat_map
        (fun (name, op, iteration, block) ->
          [
            ( Printf.sprintf "computing-%s-b%d" name bit,
              flip ~iteration ~window:(Fault.In_computation op) ~block
                ~element:(2, 3) bit );
            ( Printf.sprintf "update-%s-b%d" name bit,
              flip ~iteration ~window:(Fault.In_update op) ~block
                ~element:(1, 2) bit );
          ])
        ops
      @ [
          ( Printf.sprintf "storage-b%d" bit,
            flip ~iteration:(grid - 1) ~window:Fault.In_storage
              ~block:(grid - 1, 0) ~element:(1, 1) bit );
          ( Printf.sprintf "checksum-b%d" bit,
            flip ~iteration:1 ~window:Fault.In_checksum ~block:(grid - 1, 0)
              ~element:(0, 2) bit );
        ])
    sweep_bits

let sweep_runs () =
  List.concat_map
    (fun grid ->
      let n = grid * block in
      let spd = Spd.random_spd ~seed:1024 n
      and dd = Lapack.diag_dominant ~seed:31 n
      and gen = Spd.random ~seed:17 n n in
      List.concat_map
        (fun (sname, scheme) ->
          let label driver pname =
            Printf.sprintf "%s grid%d %s %s" driver grid sname pname
          in
          let each t run =
            List.map
              (fun (pname, inj) -> run pname [ inj ])
              (sweep_plans t ~grid)
          in
          each cholesky_targets (fun pname plan ->
              let cfg =
                C.Config.make ~machine:Hetsim.Machine.testbench ~block
                  ~scheme ()
              in
              chol_checked (label "ft" pname) spd (C.Ft.factor ~plan cfg spd))
          @ each right_looking_targets (fun pname plan ->
                chol_checked
                  (label "right_looking" pname)
                  spd
                  (C.Right_looking.factor ~plan ~scheme ~block spd))
          @ each lu_targets (fun pname plan ->
                lu_checked (label "lu" pname) dd
                  (Ftlu.Ft_lu.factor ~plan ~scheme ~block dd))
          @ each qr_targets (fun pname plan ->
                qr_checked (label "qr" pname) gen
                  (Ftqr.Ft_qr.factor ~plan ~scheme ~block gen)))
        sweep_schemes)
    [ 2; 3; 4 ]

let same_bits x y =
  (Float.is_nan x && Float.is_nan y)
  || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let screen = C.Recovery.residual_threshold /. 1000.

(* Every way a run can disagree with the dense reference: a different
   class (with the run's own give-up, if any, held fixed), or a value
   above the screen that is not the dense value itself. *)
let disagreements c =
  let failure =
    match c.outcome with C.Recovery.Gave_up r -> Some r | _ -> None
  in
  (* Float.max keeps a NaN, as the drivers' own max does *)
  let classify pick =
    C.Recovery.classify failure
      ~residual:(List.fold_left (fun w p -> Float.max w (pick p)) 0. c.pairs)
  in
  let cls =
    if classify fst = classify snd then []
    else [ c.label ^ ": classified differently by the dense reference" ]
  in
  cls
  @ List.filter_map
      (fun (reported, dense) ->
        if reported <= screen || same_bits reported dense then None
        else
          Some
            (Printf.sprintf "%s: reported %h above the screen, dense %h"
               c.label reported dense))
      c.pairs

let test_classification_equivalence () =
  let runs = List.map snd (grid_runs ()) @ sweep_runs () in
  let bad = List.concat_map disagreements runs in
  Alcotest.(check (list string)) "no disagreement" [] bad;
  (* the sweep must reach both sides of the screen *)
  let above =
    List.length
      (List.filter
         (fun c -> List.exists (fun (r, _) -> not (r <= screen)) c.pairs)
         runs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d runs reach the dense confirmation" above
       (List.length runs))
    true
    (above > 0 && above < List.length runs)

(* A wrong final factor whose residual lies just around the threshold:
   the screen cannot clear it, so the reported value is the dense
   residual, bit for bit. *)
let test_near_threshold () =
  let a = Spd.random_spd ~seed:1024 n in
  let plan =
    [ Fault.computing_error ~delta:1e-5 ~iteration:2
        ~op:Fault.Potf2 ~block:(2, 2) ~element:(3, 1) () ]
  in
  let cfg =
    C.Config.make ~machine:Hetsim.Machine.testbench ~block
      ~scheme:Abft.Scheme.No_ft ()
  in
  let c = chol_checked "near-threshold" a (C.Ft.factor ~plan cfg a) in
  match c.pairs with
  | [ (reported, dense) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "dense residual %.3e in [1e-7, 1e-5]" dense)
        true
        (dense >= 1e-7 && dense <= 1e-5);
      Alcotest.(check bool)
        (Printf.sprintf "reported %h = dense %h" reported dense)
        true (same_bits reported dense)
  | _ -> Alcotest.fail "one residual expected"

let () =
  Alcotest.run "numeric_golden"
    [
      ( "fingerprints",
        [
          Alcotest.test_case "ft/right-looking/lu/qr drivers match the fixture"
            `Quick test_fingerprints;
          Alcotest.test_case
            "screened check classifies every run as the dense reference"
            `Quick test_classification_equivalence;
          Alcotest.test_case "near-threshold residual is the dense value"
            `Quick test_near_threshold;
        ] );
    ]
