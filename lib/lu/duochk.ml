open Matrix

type t = { col : Abft.Checksum.t; row : Abft.Checksum.t }

let encode ?(d = 2) tile =
  {
    col = Abft.Checksum.encode ~d tile;
    row = Abft.Checksum.encode ~d (Mat.transpose tile);
  }

let col t = t.col
let row t = t.row
let verify_col ?tol t tile = Abft.Verify.verify ?tol t.col tile

let swap_correction tile (f : Abft.Verify.correction) =
  (* Write the patched element back, swapping coordinates. *)
  Mat.set tile f.Abft.Verify.col f.Abft.Verify.row f.Abft.Verify.fixed;
  { f with Abft.Verify.row = f.Abft.Verify.col; Abft.Verify.col = f.Abft.Verify.row }

let compare_col ?tol t tile = Abft.Verify.compare ?tol t.col tile

(* Map a row-side (transposed) outcome back to tile coordinates,
   writing any fixes into the untransposed tile. *)
let untranspose_outcome tile = function
  | Abft.Verify.Clean -> Abft.Verify.Clean
  | Abft.Verify.Uncorrectable _ as u -> u
  | Abft.Verify.Corrected fixes ->
      Abft.Verify.Corrected (List.map (swap_correction tile) fixes)
  | Abft.Verify.Checksum_repaired { cells; corrections } ->
      Abft.Verify.Checksum_repaired
        { cells; corrections = List.map (swap_correction tile) corrections }

let verify_row ?tol t tile =
  untranspose_outcome tile (Abft.Verify.verify ?tol t.row (Mat.transpose tile))

let compare_row ?tol t tile =
  untranspose_outcome tile (Abft.Verify.compare ?tol t.row (Mat.transpose tile))

(* Combine the two verifications. Either side may additionally report a
   replica repair ([Checksum_repaired]); the combination stays a repair
   if either side healed a replica, accumulating all tile fixes. *)
let compare_both ?tol t tile =
  match compare_col ?tol t tile with
  | Abft.Verify.Uncorrectable _ as u -> u
  | col_outcome -> (
      match compare_row ?tol t tile with
      | Abft.Verify.Uncorrectable _ as u -> u
      | row_outcome ->
          let fixes_of = function
            | Abft.Verify.Clean -> []
            | Abft.Verify.Corrected l -> l
            | Abft.Verify.Checksum_repaired { corrections; _ } -> corrections
            | Abft.Verify.Uncorrectable _ -> []
          in
          let cells_of = function
            | Abft.Verify.Checksum_repaired { cells; _ } -> cells
            | Abft.Verify.Clean | Abft.Verify.Corrected _
            | Abft.Verify.Uncorrectable _ ->
                0
          in
          let cells = cells_of col_outcome + cells_of row_outcome in
          let fixes = fixes_of col_outcome @ fixes_of row_outcome in
          if cells > 0 then
            Abft.Verify.Checksum_repaired { cells; corrections = fixes }
          else if fixes <> [] then Abft.Verify.Corrected fixes
          else Abft.Verify.Clean)

let gemm_row ~c ~u_chk ~l =
  (* rowchk(C)_rep -= rowchk(U)_rep . L^T   (from C^T -= U^T L^T) *)
  Blas3.gemm ~transb:Types.Trans ~alpha:(-1.) ~beta:1.
    (Abft.Checksum.matrix u_chk.row) l
    (Abft.Checksum.matrix c.row);
  Blas3.gemm ~transb:Types.Trans ~alpha:(-1.) ~beta:1.
    (Abft.Checksum.shadow u_chk.row) l
    (Abft.Checksum.shadow c.row)

let fuse_col ~l_chk c = Abft.Checksum.update_fused ~chk_a:l_chk.col c.col
let solve_col c = Abft.Checksum.solve_fused c.col

let getf2 t ~lu_packed =
  let u = Mat.triu lu_packed in
  let l = Mat.tril ~diag:Types.Unit_diag lu_packed in
  (* chk(L) = chk(A) . U^-1 *)
  Blas3.trsm Types.Right Types.Upper Types.No_trans Types.Non_unit_diag u
    (Abft.Checksum.matrix t.col);
  Blas3.trsm Types.Right Types.Upper Types.No_trans Types.Non_unit_diag u
    (Abft.Checksum.shadow t.col);
  (* rowchk(U)_rep = rowchk(A)_rep . (L^T)^-1   (from U^T = A^T (L^T)^-1) *)
  Blas3.trsm Types.Right Types.Lower Types.Trans Types.Unit_diag l
    (Abft.Checksum.matrix t.row);
  Blas3.trsm Types.Right Types.Lower Types.Trans Types.Unit_diag l
    (Abft.Checksum.shadow t.row)

let row_panel t ~l_diag =
  Blas3.trsm Types.Right Types.Lower Types.Trans Types.Unit_diag l_diag
    (Abft.Checksum.matrix t.row);
  Blas3.trsm Types.Right Types.Lower Types.Trans Types.Unit_diag l_diag
    (Abft.Checksum.shadow t.row)

let copy t =
  { col = Abft.Checksum.copy t.col; row = Abft.Checksum.copy t.row }
