(** Tiled storage of a square matrix.

    MAGMA's blocked Cholesky, and the paper's per-block checksums, both
    view the n×n input as a grid of B×B blocks. This module stores the
    matrix as that grid directly: each tile is an independent {!Mat.t}
    that can be updated, verified and patched in place — exactly the
    unit of fault tolerance in the paper. Tiles are aliased, not copied:
    [tile t i j] returns the live block.

    The matrix order must be a multiple of the tile size; the drivers
    only ever produce such sizes (as do the paper's experiments, all
    multiples of 256/512). *)

type t

val create : block:int -> n:int -> t
(** [create ~block ~n] is the zero matrix of order [n] tiled into
    [block × block] tiles.
    @raise Invalid_argument unless [n > 0], [block > 0] and
    [block] divides [n]. *)

val of_mat : block:int -> Mat.t -> t
(** [of_mat ~block a] tiles a square matrix (copying its data).
    @raise Invalid_argument as {!create}, or if [a] is not square. *)

val to_mat : t -> Mat.t
(** Reassemble a fresh dense matrix from the tiles. *)

val to_lower : t -> Mat.t
(** The lower triangle, diagonal included, as a fresh dense matrix that
    is zero above the diagonal: [Mat.tril (to_mat t)] in one pass,
    copying only the on- and below-diagonal tiles. *)

val n : t -> int
(** Matrix order. *)

val block : t -> int
(** Tile size B. *)

val grid : t -> int
(** Number of tiles per side, [n / block]. *)

val tile : t -> int -> int -> Mat.t
(** [tile t i j] is the live tile at block coordinates [(i, j)] —
    mutating it mutates the tiled matrix.
    @raise Invalid_argument out of range. *)

val set_tile : t -> int -> int -> Mat.t -> unit
(** [set_tile t i j m] replaces the tile (the contents are copied into
    the existing tile storage so aliases remain valid).
    @raise Invalid_argument on wrong shape or range. *)

val iter_tiles : (int -> int -> Mat.t -> unit) -> t -> unit
(** Iterate over all tiles in column-major block order. *)

val copy : t -> t
(** Deep copy. *)

val map_tiles : (Mat.t -> Mat.t) -> t -> t
(** [map_tiles f t] is a fresh tiled matrix whose [(i,j)] tile is
    [f (tile t i j)]; [f] must preserve the tile shape. *)
