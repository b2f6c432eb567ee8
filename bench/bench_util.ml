(* Shared helpers for the reproduction benches: machine/size grids,
   overhead computation, table formatting, and the machine-readable
   results sink behind `--json`. *)

module C = Cholesky

(* The paper's sweep ranges (§VII-A): 5120..23040 on tardis,
   5120..30720 on bulldozer64, step 2560 (matching both block sizes). *)
let sizes (machine : Hetsim.Machine.t) =
  let top = if machine.Hetsim.Machine.name = "tardis" then 23040 else 30720 in
  let rec go n acc = if n > top then List.rev acc else go (n + 2560) (n :: acc) in
  go 5120 []

let machines =
  [ (Hetsim.Machine.tardis, 20480); (Hetsim.Machine.bulldozer64, 30720) ]

(* ------------------------------------------------------------------ *)
(* Machine-readable results (`--json out.json`)                        *)
(*                                                                     *)
(* Every simulated run that goes through [run] (and anything a bench   *)
(* reports explicitly via [record]) accumulates one row; [json]        *)
(* renders them at exit. Schema documented in EXPERIMENTS.md.          *)
(* ------------------------------------------------------------------ *)

let current_experiment = ref ""
let json_requested = ref false

let rows : Obs.metrics_record list ref = ref []

let record ~name ~size metrics =
  if !json_requested then
    rows :=
      { Obs.experiment = !current_experiment; name; size; metrics } :: !rows

let json () = Obs.metrics_json (List.rev !rows)

(* The bench process's observability sink: Obs.null unless the user
   passed --trace-out/--metrics-out, in which case main.ml swaps in a
   live sink before dispatching experiments. *)
let obs : Obs.t ref = ref Obs.null

(* ------------------------------------------------------------------ *)
(* Simulated runs                                                      *)
(* ------------------------------------------------------------------ *)

let run ?plan ?(opt1 = true) ?(opt2 = C.Config.Auto) ?(block = 0) machine
    scheme n =
  let cfg = C.Config.make ~machine ~scheme ~block ~opt1 ~opt2 () in
  let r = C.Schedule.run ?plan cfg ~n in
  record
    ~name:
      (Printf.sprintf "%s/%s" machine.Hetsim.Machine.name
         (Abft.Scheme.name scheme))
    ~size:n
    [
      ("makespan_s", r.C.Schedule.makespan);
      ("gflops", r.C.Schedule.gflops);
      ("reruns", float_of_int r.C.Schedule.reruns);
    ];
  r

(* Makespan of plain MAGMA (no FT) — the baseline every overhead is
   relative to. Memoised on the *full* configuration (machine, size,
   optimization flags, block size): a sweep that varies opt1/opt2 or
   the tile size must not read a baseline computed under different
   settings. The machine record participates structurally, so two
   machines differing in any rate hash to different keys even under
   one name. *)
let baseline_tbl
    : (Hetsim.Machine.t * int * bool * C.Config.placement * int, float)
      Hashtbl.t =
  Hashtbl.create 64

let baseline ?(opt1 = true) ?(opt2 = C.Config.Auto) ?(block = 0) machine n =
  let key = (machine, n, opt1, opt2, block) in
  match Hashtbl.find_opt baseline_tbl key with
  | Some t -> t
  | None ->
      let t =
        (run ~opt1 ~opt2 ~block machine Abft.Scheme.No_ft n)
          .C.Schedule.makespan
      in
      Hashtbl.replace baseline_tbl key t;
      t

let overhead_pct ?opt1 ?opt2 ?block machine n makespan =
  let base = baseline ?opt1 ?opt2 ?block machine n in
  (makespan -. base) /. base *. 100.

let header title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '-')

let row_label = Format.printf "%-24s"

let note fmt = Format.printf ("  note: " ^^ fmt ^^ "@.")

let paper fmt = Format.printf ("  paper: " ^^ fmt ^^ "@.")
