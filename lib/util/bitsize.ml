(* floor(log2 x) + 1 by halving the search range: five shift tests cover
   the 62 bits of a non-negative OCaml int. *)
let int_bits x =
  assert (x >= 0);
  let b = ref 1 and v = ref x in
  if !v >= 1 lsl 32 then begin b := !b + 32; v := !v lsr 32 end;
  if !v >= 1 lsl 16 then begin b := !b + 16; v := !v lsr 16 end;
  if !v >= 1 lsl 8 then begin b := !b + 8; v := !v lsr 8 end;
  if !v >= 1 lsl 4 then begin b := !b + 4; v := !v lsr 4 end;
  if !v >= 1 lsl 2 then begin b := !b + 2; v := !v lsr 2 end;
  if !v >= 2 then b := !b + 1;
  !b

let id_bits ~n = int_bits (max 1 (n - 1))

let weight_bits ~max_weight = int_bits (max 1 max_weight)

let congest_budget ~n = 16 * id_bits ~n
