open Matrix

type state = {
  grid : int;
  pool : Parallel.Pool.t;
  tol : float;
  tiles : Tile.t;
  store : Abft.Checksum.store option;
  injector : Injector.t;
  tally : Recovery.stats ref;
}

let lookup st (i, c) =
  if i >= 0 && c >= 0 && i < st.grid && c < st.grid && i >= c then
    Some (Tile.tile st.tiles i c)
  else None

let chk st i c =
  match st.store with Some s -> Abft.Checksum.get s i c | None -> assert false

let verify st i c =
  Recovery.account st.tally ~block:(i, c)
    (Abft.Verify.verify ~tol:st.tol (chk st i c) (Tile.tile st.tiles i c))

let run_attempt st ~scheme =
  let g = st.grid in
  let with_ft = st.store <> None in
  let enhanced = match scheme with Abft.Scheme.Enhanced _ -> true | _ -> false in
  let online = scheme = Abft.Scheme.Online in
  let kk = Abft.Scheme.verification_interval scheme in
  let tile = Tile.tile st.tiles in
  for j = 0 to g - 1 do
    Injector.fire_storage st.injector ~iteration:j ~lookup:(lookup st);
    let gate = j mod kk = 0 in
    (* ---- POTF2: the diagonal tile already carries all its updates ---- *)
    if enhanced && with_ft then verify st j j;
    let diag = tile j j in
    (try Lapack.potf2 Types.Lower diag
     with Lapack.Not_positive_definite k ->
       raise (Recovery.Error (Recovery.Fail_stop { iteration = j; column = k })));
    Injector.fire_compute st.injector ~iteration:j ~op:Fault.Potf2 ~block:(j, j)
      diag;
    if with_ft then Abft.Update.potf2 ~chk:(chk st j j) ~la:diag;
    if online && with_ft then verify st j j;
    (* ---- TRSM: panel solve ---- *)
    if j < g - 1 then begin
      if enhanced && with_ft && gate then begin
        verify st j j;
        for i = j + 1 to g - 1 do
          verify st i j
        done
      end;
      for i = j + 1 to g - 1 do
        let t = tile i j in
        Blas3.trsm ~pool:st.pool Types.Right Types.Lower Types.Trans
          Types.Non_unit_diag diag t;
        Injector.fire_compute st.injector ~iteration:j ~op:Fault.Trsm
          ~block:(i, j) t;
        if with_ft then Abft.Update.trsm ~chk:(chk st i j) ~la:diag;
        if online && with_ft then verify st i j
      done;
      (* ---- eager trailing update (the right-looking signature):
              A(i,c) -= L(i,j) L(c,j)^T for j < c <= i. The L panel of
              iteration j is never read again after this loop. ---- *)
      if enhanced && with_ft && gate then begin
        for i = j + 1 to g - 1 do
          verify st i j
        done;
        for c = j + 1 to g - 1 do
          for i = c to g - 1 do
            verify st i c
          done
        done
      end;
      for c = j + 1 to g - 1 do
        for i = c to g - 1 do
          let t = tile i c in
          Blas3.gemm ~pool:st.pool ~transb:Types.Trans ~alpha:(-1.)
            ~beta:1. (tile i j) (tile c j) t;
          if with_ft then begin
            if i = c then
              Abft.Update.syrk ~chk_a:(chk st i c) ~chk_lc:(chk st i j)
                ~lc:(tile c j)
            else
              Abft.Update.gemm ~chk_b:(chk st i c) ~chk_ld:(chk st i j)
                ~lc:(tile c j)
          end;
          Injector.fire_compute st.injector ~iteration:j
            ~op:(if i = c then Fault.Syrk else Fault.Gemm)
            ~block:(i, c) t;
          if online && with_ft then verify st i c
        done
      done
    end
  done

let final_verification st ~scheme =
  if scheme = Abft.Scheme.Offline && st.store <> None then
    List.iter
      (fun (i, c) ->
        Recovery.detect st.tally ~block:(i, c)
          (Abft.Verify.check ~tol:st.tol (chk st i c) (Tile.tile st.tiles i c)))
      (Sets.all_lower ~grid:st.grid)

let factor ?pool ?(plan = []) ?(scheme = Abft.Scheme.enhanced ()) ?(block = 16)
    ?(tol = Abft.Verify.default_tol) ?(max_restarts = 3) a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Right_looking.factor: input not square";
  if block < 1 then
    invalid_arg
      (Printf.sprintf "Right_looking.factor: block must be >= 1, got %d" block);
  let block = if n < block then n else block in
  if n <= 0 || n mod block <> 0 then
    invalid_arg
      (Printf.sprintf
         "Right_looking.factor: order %d must be a positive multiple of %d" n
         block);
  let pool = match pool with Some p -> p | None -> Parallel.Pool.default () in
  let injector = Injector.create plan in
  let tally = ref Recovery.zero in
  let attempt () =
    let tiles = Tile.of_mat ~block a in
    let store =
      match scheme with
      | Abft.Scheme.No_ft -> None
      | _ -> Some (Abft.Checksum.encode_lower ~pool tiles)
    in
    { grid = n / block; pool; tol; tiles; store; injector; tally }
  in
  let run st ~from:_ =
    run_attempt st ~scheme;
    final_verification st ~scheme
  in
  let st, failure = Recovery.ladder tally ~max_restarts ~attempt ~run in
  let l = Tile.to_lower st.tiles in
  let residual = Ft.residual_of ~input:a l in
  {
    Ft.factor = l;
    outcome = Recovery.classify failure ~residual;
    residual;
    stats = !tally;
    injections_fired = Injector.fired injector;
    trace = [];
  }
