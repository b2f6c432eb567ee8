(** Dense vectors of [float] and the BLAS level-1 operations on them.

    A vector is a plain [float array]; this module only adds the numeric
    kernels and a few constructors, so interop with the rest of the code
    base is zero-cost. All kernels are written with explicit loops and
    unsafe accesses guarded by a single upfront dimension check — the
    style used throughout the [matrix] library. *)

type t = float array

val create : int -> t
(** [create n] is a fresh zero vector of length [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val copy : t -> t
(** [copy x] is a fresh vector equal to [x]. *)

val ones : int -> t
(** [ones n] is the all-ones vector, i.e. the first ABFT checksum
    weight vector [v1] of the paper. *)

val ramp : int -> t
(** [ramp n] is [| 1.; 2.; ...; float n |], the second ABFT checksum
    weight vector [v2] of the paper. *)

val fill : t -> float -> unit
(** [fill x a] sets every element of [x] to [a]. *)

val scal : float -> t -> unit
(** [scal alpha x] scales [x <- alpha * x] in place. *)

val axpy : float -> t -> t -> unit
(** [axpy alpha x y] computes [y <- alpha * x + y] in place.
    @raise Invalid_argument if lengths differ. *)

val dot : t -> t -> float
(** [dot x y] is the inner product Σᵢ xᵢ·yᵢ.
    @raise Invalid_argument if lengths differ. *)

val nrm2 : t -> float
(** [nrm2 x] is the Euclidean norm ‖x‖₂, computed with scaling to avoid
    intermediate overflow. A NaN anywhere in [x] makes it NaN, even
    when every other entry is zero. *)

val asum : t -> float
(** [asum x] is Σᵢ |xᵢ|. *)

val iamax : t -> int
(** [iamax x] is the index of the first element of maximal absolute
    value. @raise Invalid_argument on the empty vector. *)

val add : t -> t -> t
(** [add x y] is the fresh vector [x + y]. *)

val sub : t -> t -> t
(** [sub x y] is the fresh vector [x - y]. *)

val map : (float -> float) -> t -> t
(** [map f x] is the fresh vector with [f] applied pointwise. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** [approx_equal ~tol x y] is true when the vectors have equal length
    and every componentwise difference is at most [tol] (default
    [1e-9]). *)

val pp : Format.formatter -> t -> unit
(** Human-readable printer, e.g. [[1.00; 2.00; 3.00]]. *)
