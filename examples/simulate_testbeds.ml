(* Timing-mode demo: simulate the paper's two testbeds at paper scale
   and print the per-phase time decomposition for each scheme —
   a compact preview of the tables and figures bench/main.exe
   reproduces in full (its output is pinned in
   test/fixtures/paper_tables.txt). Run:

     dune exec examples/simulate_testbeds.exe
*)

module C = Cholesky

let schemes =
  [
    ("MAGMA (no FT)", Abft.Scheme.No_ft);
    ("Offline-ABFT", Abft.Scheme.Offline);
    ("Online-ABFT", Abft.Scheme.Online);
    ("Enhanced k=1", Abft.Scheme.enhanced ());
    ("Enhanced k=3", Abft.Scheme.enhanced ~k:3 ());
  ]

let () =
  List.iter
    (fun (machine, n) ->
      Format.printf "@.=== %s, n = %d (B = %d) ===@." machine.Hetsim.Machine.name
        n machine.Hetsim.Machine.default_block;
      Format.printf "%a@.@." Hetsim.Machine.pp machine;
      let base = ref 0. in
      List.iter
        (fun (name, scheme) ->
          let cfg = C.Config.make ~machine ~scheme () in
          let r = C.Schedule.run cfg ~n in
          if scheme = Abft.Scheme.No_ft then base := r.C.Schedule.makespan;
          let overhead = (r.C.Schedule.makespan -. !base) /. !base *. 100. in
          Format.printf "%-14s %8.4f s  %7.1f GFLOPS  overhead %+5.2f%%@." name
            r.C.Schedule.makespan r.C.Schedule.gflops overhead;
          let interesting =
            [ "compute"; "chk-recalc"; "chk-update"; "chk-encode"; "transfer" ]
          in
          let e = r.C.Schedule.engine in
          Format.printf "   phases: %s@."
            (String.concat ", "
               (List.filter_map
                  (fun p ->
                    let t = Hetsim.Engine.phase_time e p in
                    if t > 1e-6 then Some (Printf.sprintf "%s %.3fs" p t)
                    else None)
                  interesting)))
        schemes;
      let cula = C.Cula_model.run machine ~n in
      Format.printf "%-14s %8.4f s  %7.1f GFLOPS  (vendor-library baseline)@."
        "CULA model" cula.C.Cula_model.makespan cula.C.Cula_model.gflops)
    [ (Hetsim.Machine.tardis, 20480); (Hetsim.Machine.bulldozer64, 30720) ]
