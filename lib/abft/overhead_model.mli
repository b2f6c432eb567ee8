(** The paper's analytic overhead model (§VI, Tables II–VI).

    All quantities are in floating-point operations (or words for the
    transfer costs) for an n×n input with block size B, verification
    interval K. "Relative" overheads are normalised by the Cholesky
    flop count [n³/3]. These closed forms are what the bench compares
    against the simulator's measured decomposition, and what
    Optimization 2's placement model consumes. *)

type params = { n : int; b : int; k : int }

val cholesky_flops : params -> float
(** [n³/3] *)

val encode_flops : params -> float
(** Checksum encoding, done once before factorization: [2n²]
    (Table: relative [6/n]). *)

val update_flops : params -> float
(** Total checksum-updating work: TRSM + SYRK + GEMM terms
    [2n² + 2n² + 2n³/(3B)] (POTF2's [2Bn] ignored as in the paper). *)

val update_relative : params -> float
(** [12/n + 2/B]. *)

val recalc_flops_online : params -> float
(** Online-ABFT recalculation (post-update): [2n² + 2n²]
    (TRSM + GEMM rows of Table IV; POTF2/SYRK ignored). *)

val recalc_relative_online : params -> float
(** [12/n]. *)

val recalc_flops_enhanced : params -> float
(** Enhanced recalculation (pre-read): TRSM [2n²] + SYRK [2n²/K] +
    GEMM [2n³/(3BK)] per Table V. *)

val recalc_relative_enhanced : params -> float
(** [(6K+6)/(nK) + 2/(BK)]. *)

val space_bytes : params -> float
(** Checksum storage: [2n²/B] doubles, returned in bytes. *)

val space_relative : params -> float
(** [2/B]. *)

val overall_relative_online : params -> float
(** Table VI: [30/n + 2/B]. *)

val overall_relative_enhanced : params -> float
(** Table VI: [(24K+6)/(nK) + (2K+2)/(BK)]. *)

val asymptote_online : params -> float
(** [2/B]. *)

val asymptote_enhanced : params -> float
(** [(2K+2)/(BK)]. *)

(** {1 Data-transfer words (§VI item 6, CPU-side updating)} *)

val transfer_words_initial : params -> float
(** [2n²/B] *)

val transfer_words_update : params -> float
(** [n²/2] *)

val transfer_words_verify_enhanced : params -> float
(** [n³/(3KB²)] *)
