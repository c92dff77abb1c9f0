type t = { state : Random.State.t }

(* A small integer hash (splitmix64-style finalizer, truncated to OCaml's
   63-bit ints) used to derive seeds for [split] deterministically. *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x4be98134a5976fd3 in
  let x = x lxor (x lsr 29) in
  let x = x * 0x3bbf2a98b9cf63a1 in
  let x = x lxor (x lsr 32) in
  x land max_int

let create seed = { state = Random.State.make [| mix seed; mix (seed + 1) |] }

let split t i =
  (* Draw a fresh base from the parent stream is NOT deterministic w.r.t. the
     order of splits, so instead we split purely from the parent's seed
     material: hash the parent's current state fingerprint with [i].  We keep
     a fingerprint by drawing one value lazily would mutate the parent; to
     stay pure we fingerprint via a dedicated draw at creation time instead.
     Simplest sound scheme: each [t] carries its own state; [split] hashes a
     draw from a *copy* of the parent state with [i]. *)
  let copy = Random.State.copy t.state in
  let fingerprint = Random.State.bits copy in
  { state = Random.State.make [| mix (fingerprint lxor mix i); mix i |] }

(* [full_int] draws exactly as [int] below 2^30 and accepts any positive
   bound above it. *)
let int t bound =
  assert (bound > 0);
  Random.State.full_int t.state bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound = Random.State.float t.state bound

let bool t = Random.State.bool t.state

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let sample_without_replacement t m n =
  assert (m <= n);
  if 3 * m >= n then begin
    let p = permutation t n in
    Array.sub p 0 m
  end
  else begin
    (* Rejection sampling into a hash set; fast when m << n. *)
    let seen = Hashtbl.create (2 * m) in
    let out = Array.make m 0 in
    let filled = ref 0 in
    while !filled < m do
      let x = int t n in
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        out.(!filled) <- x;
        incr filled
      end
    done;
    out
  end
