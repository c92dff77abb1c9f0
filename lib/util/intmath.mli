(** Small integer helpers shared across the algorithms. *)

val isqrt : int -> int
(** Floor integer square root: the largest r with r * r <= n. *)

val ceil_log2 : int -> int
(** The least k with 2^k >= n (0 for n <= 1). *)

val ceil_div : int -> int -> int
(** [ceil_div a b] = ceiling of a / b for positive b. *)

val compare_pair : int * int -> int * int -> int
(** Lexicographic order on int pairs: the sign of [compare] on them, but
    as two inline integer compares instead of a call into the runtime's
    polymorphic compare. *)
