type t = {
  mutable messages : int;
  mutable bits : int;
  per_edge : (int * int, int) Hashtbl.t;
}

let create () = { messages = 0; bits = 0; per_edge = Hashtbl.create 64 }

let observer t ~src ~dst ~bits =
  t.messages <- t.messages + 1;
  t.bits <- t.bits + bits;
  let key = src, dst in
  Hashtbl.replace t.per_edge key
    (bits + Option.value ~default:0 (Hashtbl.find_opt t.per_edge key))

let messages t = t.messages
let bits t = t.bits

(* Descending bits, ties broken by ascending (src, dst): hash-fold order
   must never leak into the ranking, or two runs of the same trace render
   different "hottest" lists. *)
let hottest_edges t n =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.per_edge []
  |> List.sort (fun (ka, a) (kb, b) ->
         let c = compare b a in
         if c <> 0 then c else compare ka kb)
  |> List.filteri (fun i _ -> i < n)

let bits_between t ~src ~dst =
  Option.value ~default:0 (Hashtbl.find_opt t.per_edge (src, dst))

let postmortem_tail = 64

let pp_postmortem ?(env = Sim.default_env) ppf (a : Sim.abort) =
  Format.fprintf ppf
    "round limit hit at round %d (%d messages, %d dropped, %d retransmitted \
     in total)@."
    a.Sim.at_round a.Sim.snapshot.Sim.messages a.Sim.snapshot.Sim.dropped
    a.Sim.snapshot.Sim.retransmissions;
  (* Who was still talking: per-sender message totals over the window
     point straight at the node whose timer never stops firing. *)
  let talkers = Hashtbl.create 16 in
  List.iter
    (fun (_, msgs) ->
      List.iter
        (fun (src, _, _) ->
          Hashtbl.replace talkers src
            (1 + Option.value ~default:0 (Hashtbl.find_opt talkers src)))
        msgs)
    a.Sim.recent;
  let ranked =
    Hashtbl.fold (fun node count acc -> (node, count) :: acc) talkers []
    |> List.sort (fun (na, a) (nb, b) ->
           (* Descending count, ascending node id on ties — deterministic
              regardless of hash-fold order. *)
           let c = compare b a in
           if c <> 0 then c else compare na nb)
  in
  (match ranked with
  | [] -> Format.fprintf ppf "no traffic in the last %d rounds@."
            (List.length a.Sim.recent)
  | _ ->
      Format.fprintf ppf "senders over the last %d rounds:"
        (List.length a.Sim.recent);
      List.iter
        (fun (node, count) -> Format.fprintf ppf " %d:%dmsg" node count)
        ranked;
      Format.fprintf ppf "@.");
  List.iter
    (fun (round, msgs) ->
      Format.fprintf ppf "  round %d:" round;
      if msgs = [] then Format.fprintf ppf " (silent)"
      else
        List.iter
          (fun (src, dst, bits) ->
            Format.fprintf ppf " %d->%d:%db" src dst bits)
          msgs;
      Format.fprintf ppf "@.")
    a.Sim.recent;
  (* When the aborted run was flying a flight recorder, append its causal
     tail: unlike the traffic ring this includes steps, crash windows, and
     span boundaries — the events leading into the abort, oldest first. *)
  match Option.bind env.Sim.telemetry Telemetry.recorder with
  | None -> ()
  | Some r -> (
      match Recorder.tail r postmortem_tail with
      | [] -> ()
      | evs ->
          Format.fprintf ppf "flight recorder tail (last %d of %d events):@."
            (List.length evs) (Recorder.event_count r);
          List.iter
            (fun ev -> Format.fprintf ppf "  %a@." Recorder.pp_event ev)
            evs)
