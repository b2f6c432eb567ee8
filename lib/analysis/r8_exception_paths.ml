(* R8 — exception-path soundness for the recovery ladder.

   A recovery-family raise ([Recovery.Error], which every numeric
   driver raises, or [Resilient]'s [Gave_up]) abandons work. The ladder's
   accounting contract is that abandonment is always visible: either
   the raising function has already updated stats (a field mutation, a
   counter bump, or a call to a helper that does — [mark_degraded],
   [count_*]), or an exception handler in the same file catches the
   recovery family and accounts there. A raise with neither is a
   fault that disappears from every report; a handler that catches a
   recovery exception and neither accounts nor re-raises swallows a
   detected error silently — the one outcome ABFT exists to prevent.

   Like R2/R6/R7 the check is lexical: "a stat update appears earlier
   in the function" approximates "the raise is reachable only below a
   snapshot/accounting point". Waive with [[@abft.waive "reason"]]. *)

let rule_id = "R8"

let recovery_exn path =
  match (path, List.rev path) with
  | "Recovery" :: _, _ -> true
  | _, last :: _ -> last = "Recovery" || last = "Gave_up"
  | _ -> false

let recovery_handler (h : Ir.handler) = List.exists recovery_exn h.catches

let handler_accounts idx ~current (h : Ir.handler) =
  h.Ir.accounted || h.Ir.reraises
  || List.exists (Index.is_stat_updater idx ~current) h.Ir.handler_calls

let check (idx : Index.t) =
  let findings = ref [] in
  let add ~loc msg =
    findings := Finding.make ~rule:rule_id ~loc:(Ir.to_location loc) msg :: !findings
  in
  List.iter
    (fun (fs : Ir.file_summary) ->
      (* does any handler in this file catch the recovery family and
         account for the abandonment? *)
      let accounted_handler_in_file =
        List.exists
          (fun (d : Ir.def) ->
            List.exists
              (function
                | Ir.Handler h ->
                    recovery_handler h
                    && handler_accounts idx ~current:d.Ir.def_module h
                | _ -> false)
              d.Ir.events)
          fs.defs
      in
      List.iter
        (fun (d : Ir.def) ->
          let current = d.Ir.def_module in
          let stat_seen = ref false in
          List.iter
            (fun (ev : Ir.event) ->
              match ev with
              | Ir.Stat_update _ -> stat_seen := true
              | Ir.Call c ->
                  if Index.is_stat_updater idx ~current c.Ir.path then
                    stat_seen := true
              | Ir.Raise { exn_path; raise_loc } ->
                  if
                    recovery_exn exn_path
                    && (not !stat_seen)
                    && not accounted_handler_in_file
                  then
                    add ~loc:raise_loc
                      (Printf.sprintf
                         "recovery raise [%s] with no stats update before \
                          it and no accounting handler in this file: the \
                          abandonment is invisible to every report"
                         (String.concat "." exn_path))
              | Ir.Handler h ->
                  if recovery_handler h && not (handler_accounts idx ~current h)
                  then
                    add ~loc:h.Ir.handler_loc
                      "recovery exception caught but neither accounted (no \
                       stats update) nor re-raised: a detected fault is \
                       swallowed silently"
              | _ -> ())
            d.Ir.events)
        fs.defs)
    (Index.files idx);
  List.rev !findings
