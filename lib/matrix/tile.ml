type t = { tiles : Mat.t array array; block : int; n : int }

let create ~block ~n =
  if n <= 0 || block <= 0 || n mod block <> 0 then
    invalid_arg
      (Printf.sprintf "Tile.create: block %d must divide n %d (both > 0)" block
         n);
  let g = n / block in
  {
    tiles = Array.init g (fun _ -> Array.init g (fun _ -> Mat.create block block));
    block;
    n;
  }

let n t = t.n
let block t = t.block
let grid t = t.n / t.block

let of_mat ~block a =
  if Mat.rows a <> Mat.cols a then invalid_arg "Tile.of_mat: not square";
  let t = create ~block ~n:(Mat.rows a) in
  let g = grid t in
  for bi = 0 to g - 1 do
    for bj = 0 to g - 1 do
      let sub =
        Mat.sub a ~row:(bi * block) ~col:(bj * block) ~rows:block ~cols:block
      in
      Mat.blit ~src:sub ~dst:t.tiles.(bi).(bj) ~row:0 ~col:0
    done
  done;
  t

let to_mat t =
  let a = Mat.create t.n t.n in
  let g = grid t in
  for bi = 0 to g - 1 do
    for bj = 0 to g - 1 do
      Mat.blit ~src:t.tiles.(bi).(bj) ~dst:a ~row:(bi * t.block)
        ~col:(bj * t.block)
    done
  done;
  a

let to_lower t =
  let n = t.n and b = t.block in
  let a = Mat.create n n in
  let g = grid t in
  for bj = 0 to g - 1 do
    for bi = bj to g - 1 do
      let src = t.tiles.(bi).(bj).Mat.data in
      for j = 0 to b - 1 do
        (* a diagonal tile contributes rows j.. of its column j *)
        let i0 = if bi = bj then j else 0 in
        Array.blit src ((j * b) + i0) a.Mat.data
          ((((bj * b) + j) * n) + (bi * b) + i0)
          (b - i0)
      done
    done
  done;
  a

let check_range t i j =
  let g = grid t in
  if i < 0 || i >= g || j < 0 || j >= g then
    invalid_arg (Printf.sprintf "Tile: block (%d,%d) out of %dx%d grid" i j g g)

let tile t i j =
  check_range t i j;
  t.tiles.(i).(j)

let set_tile t i j m =
  check_range t i j;
  if Mat.rows m <> t.block || Mat.cols m <> t.block then
    invalid_arg "Tile.set_tile: wrong tile shape";
  Mat.blit ~src:m ~dst:t.tiles.(i).(j) ~row:0 ~col:0

let iter_tiles f t =
  let g = grid t in
  for bj = 0 to g - 1 do
    for bi = 0 to g - 1 do
      f bi bj t.tiles.(bi).(bj)
    done
  done

let copy t =
  {
    t with
    tiles = Array.map (fun row -> Array.map Mat.copy row) t.tiles;
  }

let map_tiles f t =
  let fresh = copy t in
  iter_tiles
    (fun i j m ->
      let m' = f m in
      set_tile fresh i j m')
    t;
  fresh
