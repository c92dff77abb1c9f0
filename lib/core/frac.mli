(** Exact dyadic rationals: values of the form [num / 2^den_pow].

    Moat radii are not integers: an active-active meeting event solves
    [rad_v + rad_w + 2µ = wd], halving an integer quantity, and later events
    halve again (denominators compound through phase changes, up to
    [2^(2k+2)] — see the discussion in DESIGN.md).  All moat-growing
    arithmetic (Algorithms 1 and 2 and their distributed emulations) is done
    in this exact representation so merge ordering is never corrupted by
    floating-point error.

    Values are normalized ([num] odd or [den_pow = 0]).  Overflow is guarded
    by assertions; with the experiment sizes used here (k <= ~24, weights
    poly-bounded) everything fits in 63-bit integers. *)

type t = private { num : int; den_pow : int }

val zero : t
val one : t
val of_int : int -> t
val make : int -> int -> t
(** [make num den_pow] = num / 2^den_pow, normalized. *)

val add : t -> t -> t
val add_int : t -> int -> t
(** [add_int a w] = [add a (of_int w)]. *)

val sub : t -> t -> t
val neg : t -> t
val half : t -> t
val double : t -> t
val mul_int : t -> int -> t
val min : t -> t -> t
val max : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_int : t -> bool
val to_int_exn : t -> int
val bits : t -> int
(** Wire width of the value in a CONGEST message: the bits of [|num|]
    plus the bits of [den_pow]. *)

val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string
