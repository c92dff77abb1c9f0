let isqrt n =
  assert (n >= 0);
  let r = int_of_float (sqrt (float_of_int n)) in
  (* Floor semantics (largest r with r * r <= n), correcting the float
     estimate in both directions. *)
  let r = if r * r > n then r - 1 else r in
  if (r + 1) * (r + 1) <= n then r + 1 else r

let ceil_log2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  go 0 1

let ceil_div a b =
  assert (b > 0);
  (a + b - 1) / b

let compare_pair (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2
