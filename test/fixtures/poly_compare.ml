(* NEGATIVE FIXTURE — polymorphic comparisons for the typed poly-compare
   rule.  The rule covers lib/congest, lib/embed and lib/core only, so
   test_lint analyzes this unit's .cmt as if it were lib/congest's and
   pins exactly the four flagged sites below; the int-typed and
   suppressed comparisons must stay quiet.  Do not "fix" it and do not
   link it outside the test binary. *)

(* Flagged: the shape of an unannotated sort helper.  It generalizes to
   ['a array], so [a.(!j) > x] is a call into the runtime's compare. *)
let insertion_sort a len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Flagged: compare on a tuple. *)
let pair_cmp (p : int * int) q = compare p q

type edge = { u : int; w : int }

(* Flagged: a first-class compare at a record type. *)
let sort_edges (es : edge list) = List.sort compare es

(* Quiet: the same sort at [int array]; every comparison is inline. *)
let insertion_sort_int (a : int array) len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Quiet: an Int.compare chain. *)
let pair_cmp_int (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

(* Quiet: a test against a constant constructor is an integer test. *)
let is_empty (l : edge list) = l = []

(* Quiet: suppressed at the call site. *)
let rank_cold (l : (int * int) list) =
  (List.sort compare l [@lint.allow "poly-compare"])

(* Flagged: Stdlib.max is a function, not a primitive, so even at [int]
   it calls the runtime's compare. *)
let widest (a : int) b = Stdlib.max a b

(* Quiet: Int.max is one inline compare. *)
let widest_int (a : int) b = Int.max a b
