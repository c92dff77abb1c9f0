type t = { num : int; den_pow : int }

let max_den_pow = 56

let rec normalize num den_pow =
  if num = 0 then { num = 0; den_pow = 0 }
  else if den_pow > 0 && num land 1 = 0 then normalize (num asr 1) (den_pow - 1)
  else begin
    assert (den_pow >= 0 && den_pow <= max_den_pow);
    { num; den_pow }
  end

let zero = { num = 0; den_pow = 0 }
let one = { num = 1; den_pow = 0 }

let of_int n = { num = n; den_pow = 0 }

let make num den_pow = normalize num den_pow

(* Bring to a common power-of-two denominator; overflow-guarded shifts. *)
let lift x shift =
  assert (shift >= 0 && shift <= max_den_pow);
  let v = x lsl shift in
  assert (v asr shift = x);
  v

let add a b =
  let p = Int.max a.den_pow b.den_pow in
  let na = lift a.num (p - a.den_pow) and nb = lift b.num (p - b.den_pow) in
  normalize (na + nb) p

(* [add a (of_int w)] without building [of_int w]: the common
   denominator is [a]'s own. *)
let add_int a w = normalize (a.num + lift w a.den_pow) a.den_pow

let neg a = { a with num = -a.num }

let sub a b = add a (neg b)

let half a = normalize a.num (a.den_pow + 1)

let double a = normalize (a.num * 2) a.den_pow

let mul_int a k =
  let v = a.num * k in
  assert (k = 0 || v / k = a.num);
  normalize v a.den_pow

let compare a b =
  let p = Int.max a.den_pow b.den_pow in
  Stdlib.compare (lift a.num (p - a.den_pow)) (lift b.num (p - b.den_pow))

let equal a b = compare a b = 0

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let sign a = Stdlib.compare a.num 0

let is_int a = a.den_pow = 0

let to_int_exn a =
  if a.den_pow <> 0 then invalid_arg "Frac.to_int_exn: not an integer";
  a.num

let bits a =
  Dsf_util.Bitsize.int_bits (abs a.num)
  + Dsf_util.Bitsize.int_bits (Int.max 1 a.den_pow)

let to_float a = float_of_int a.num /. float_of_int (1 lsl a.den_pow)

let to_string a =
  if a.den_pow = 0 then string_of_int a.num
  else Printf.sprintf "%d/2^%d" a.num a.den_pow

let pp ppf a = Format.pp_print_string ppf (to_string a)
