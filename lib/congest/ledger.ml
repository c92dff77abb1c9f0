type t = {
  mutable simulated : int;  (* engine-counted rounds, see add_run *)
  mutable charges : (string * int) list;  (* reversed *)
}

let create () = { simulated = 0; charges = [] }

let add_run t rounds = t.simulated <- t.simulated + rounds

let charge t label rounds =
  assert (rounds >= 0);
  t.charges <- (label, rounds) :: t.charges

let simulated t = t.simulated
let charged t = List.fold_left (fun acc (_, r) -> acc + r) 0 t.charges
let total t = simulated t + charged t

let charges t = List.rev t.charges

let merge_into ~dst t =
  dst.simulated <- dst.simulated + t.simulated;
  dst.charges <- t.charges @ dst.charges

let pp ppf t =
  Format.fprintf ppf "@[<v>total=%d (simulated=%d charged=%d)@," (total t)
    (simulated t) (charged t);
  List.iter
    (fun (l, r) -> Format.fprintf ppf "  %-9s %-40s %d@," "charged" l r)
    (charges t);
  Format.fprintf ppf "@]"
