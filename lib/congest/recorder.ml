(* Flight recorder: compact binary causal event log + offline query layer.

   The write side is deliberately dumb — tagged int records appended into
   growable int buffers, so the engines pay a handful of unboxed pushes
   per recorded action and nothing when the recorder is off.  Each
   engine stages a round's events into one [buf] and, at the barrier,
   appends a [Round] marker and then the buffer; the flat engine's
   crash pre-pass runs before any step, so the serialized log is
   byte-identical across both engines.

   The read side ([analyze]) replays the stream once, reconstructing
   inboxes exactly as the engines deliver them (round [g] sends with a
   surviving fate arrive at [g + 1] of the same run; [Down] destroys
   pending mail; a run boundary clears mail in flight) and propagating
   causal depth: a mail-consuming step extends the deepest chain among
   its deliveries, and every send it makes rides one hop above the
   sender's depth.  Every query output is a pure function of the event
   stream. *)

(* ------------------------------------------------------------ buffers *)

type buf = { mutable ra : int array; mutable rlen : int; mutable rnev : int }

let buf_make () = { ra = Array.make 64 0; rlen = 0; rnev = 0 }

let buf_clear b =
  b.rlen <- 0;
  b.rnev <- 0

let push b x =
  if b.rlen = Array.length b.ra then begin
    let a = Array.make (2 * b.rlen) 0 in
    Array.blit b.ra 0 a 0 b.rlen;
    b.ra <- a
  end;
  b.ra.(b.rlen) <- x;
  b.rlen <- b.rlen + 1

(* Event tags and their argument counts.  The stream is a flat sequence
   of [tag; arg*] records; every field is non-negative by construction
   (node ids, rounds, bit counts, fates, interned name ids). *)
let tag_round = 0
let tag_step = 1
let tag_send = 2
let tag_down = 3
let tag_restart = 4
let tag_span_open = 5
let tag_span_close = 6
let tag_recovery = 7
(* Immutable tag -> argument-count table (arrays are the only O(1)
   int-indexed literal; nothing ever writes it). *)
let arity = [| 1; 1; 4; 1; 1; 1; 1; 3 |] [@@lint.allow "global-state"]

type t = {
  master : buf;
  names : (string, int) Hashtbl.t;
  mutable names_rev : string list;  (* interned names, newest first *)
  mutable n_names : int;
  mutable meta : (string * int) list;  (* append order *)
}

(* The one sanctioned wall-clock read in this module (dsf-lint allowlists
   recorder.ml alongside telemetry.ml): the capture timestamp.  It is
   metadata, never an event — injecting [?now] makes the whole log
   byte-deterministic. *)
let now_unix_s () = int_of_float (Unix.gettimeofday ())

let meta_add t key v =
  if v < 0 then
    invalid_arg
      (Printf.sprintf "Recorder.meta_add: negative value %d for %S" v key);
  t.meta <- t.meta @ [ (key, v) ]

let create ?now () =
  let now = match now with Some s -> s | None -> now_unix_s () in
  let t =
    {
      master = buf_make ();
      names = Hashtbl.create 16;
      names_rev = [];
      n_names = 0;
      meta = [];
    }
  in
  meta_add t "captured_unix_s" (Int.max 0 now);
  t

(* ------------------------------------------------------ event appenders *)

let ev_step b v =
  push b tag_step;
  push b v;
  b.rnev <- b.rnev + 1

let ev_send b ~src ~dst ~bits ~fate =
  push b tag_send;
  push b src;
  push b dst;
  push b bits;
  push b fate;
  b.rnev <- b.rnev + 1

let ev_down b v =
  push b tag_down;
  push b v;
  b.rnev <- b.rnev + 1

let ev_restart b v =
  push b tag_restart;
  push b v;
  b.rnev <- b.rnev + 1

let round t r =
  push t.master tag_round;
  push t.master r;
  t.master.rnev <- t.master.rnev + 1

let append t b =
  let m = t.master in
  let need = m.rlen + b.rlen in
  if need > Array.length m.ra then begin
    let cap = ref (Array.length m.ra) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let a = Array.make !cap 0 in
    Array.blit m.ra 0 a 0 m.rlen;
    m.ra <- a
  end;
  Array.blit b.ra 0 m.ra m.rlen b.rlen;
  m.rlen <- need;
  m.rnev <- m.rnev + b.rnev

let buf_sends b =
  let rec go i acc =
    if i >= b.rlen then List.rev acc
    else
      let tag = b.ra.(i) in
      let acc =
        if tag = tag_send then (b.ra.(i + 1), b.ra.(i + 2), b.ra.(i + 3)) :: acc
        else acc
      in
      go (i + 1 + arity.(tag)) acc
  in
  go 0 []

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some id -> id
  | None ->
      let id = t.n_names in
      Hashtbl.add t.names name id;
      t.names_rev <- name :: t.names_rev;
      t.n_names <- id + 1;
      id

let span_open t name =
  let id = intern t name in
  push t.master tag_span_open;
  push t.master id;
  t.master.rnev <- t.master.rnev + 1

let span_close t name =
  let id = intern t name in
  push t.master tag_span_close;
  push t.master id;
  t.master.rnev <- t.master.rnev + 1

let recovery t ~retransmissions ~restores ~checkpoint_bits =
  push t.master tag_recovery;
  push t.master retransmissions;
  push t.master restores;
  push t.master checkpoint_bits;
  t.master.rnev <- t.master.rnev + 1

let event_count t = t.master.rnev

let merge_into ~dst child =
  let ids = Array.map (intern dst) (Array.of_list (List.rev child.names_rev)) in
  let src = child.master and m = dst.master in
  let i = ref 0 in
  while !i < src.rlen do
    let tag = src.ra.(!i) in
    push m tag;
    if tag = tag_span_open || tag = tag_span_close then
      push m ids.(src.ra.(!i + 1))
    else
      for j = 1 to arity.(tag) do
        push m src.ra.(!i + j)
      done;
    i := !i + 1 + arity.(tag)
  done;
  m.rnev <- m.rnev + src.rnev

(* ------------------------------------------------------ decoded events *)

type event =
  | Round of int
  | Step of int
  | Send of { src : int; dst : int; bits : int; fate : int }
  | Down of int
  | Restart of int
  | Span_open of string
  | Span_close of string
  | Recovery of { retransmissions : int; restores : int; checkpoint_bits : int }

(* Decode the record starting at [i] of a raw int stream.  [names] maps
   interned ids back to span names.  Returns the event and the index of
   the next record. *)
let decode_at ints names i =
  let tag = ints.(i) in
  if tag < 0 || tag >= Array.length arity then
    failwith (Printf.sprintf "corrupt flightlog: tag %d at %d" tag i)
  else begin
    let next = i + 1 + arity.(tag) in
    let name id =
      if id >= 0 && id < Array.length names then names.(id)
      else Printf.sprintf "<name#%d>" id
    in
    let ev =
      if tag = tag_round then Round ints.(i + 1)
      else if tag = tag_step then Step ints.(i + 1)
      else if tag = tag_send then
        Send
          {
            src = ints.(i + 1);
            dst = ints.(i + 2);
            bits = ints.(i + 3);
            fate = ints.(i + 4);
          }
      else if tag = tag_down then Down ints.(i + 1)
      else if tag = tag_restart then Restart ints.(i + 1)
      else if tag = tag_span_open then Span_open (name ints.(i + 1))
      else if tag = tag_span_close then Span_close (name ints.(i + 1))
      else
        Recovery
          {
            retransmissions = ints.(i + 1);
            restores = ints.(i + 2);
            checkpoint_bits = ints.(i + 3);
          }
    in
    ev, next
  end

let names_array t = Array.of_list (List.rev t.names_rev)

(* --------------------------------------------- dsf-flightlog/1 format *)

let magic = "dsf-flightlog/1\n"

let put_varint b v =
  if v < 0 then invalid_arg "Recorder: negative value in flightlog";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char b (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char b (Char.chr !v)

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let to_string t =
  let b = Buffer.create (16 + (2 * t.master.rlen)) in
  Buffer.add_string b magic;
  put_varint b (List.length t.meta);
  List.iter
    (fun (k, v) ->
      put_string b k;
      put_varint b v)
    t.meta;
  let names = names_array t in
  put_varint b (Array.length names);
  Array.iter (fun n -> put_string b n) names;
  put_varint b t.master.rlen;
  for i = 0 to t.master.rlen - 1 do
    put_varint b t.master.ra.(i)
  done;
  Buffer.contents b

let write_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

type log = {
  l_meta : (string * int) list;
  l_names : string array;
  l_ints : int array;
}

exception Corrupt of string

let parse s =
  let pos = ref 0 in
  let len = String.length s in
  let get_varint () =
    let v = ref 0 and shift = ref 0 and stop = ref false in
    while not !stop do
      if !pos >= len then raise (Corrupt "truncated varint");
      let c = Char.code s.[!pos] in
      incr pos;
      v := !v lor ((c land 0x7f) lsl !shift);
      shift := !shift + 7;
      if c < 0x80 then stop := true
      else if !shift > 62 then raise (Corrupt "varint overflow")
    done;
    !v
  in
  let get_string () =
    let n = get_varint () in
    if !pos + n > len then raise (Corrupt "truncated string");
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  try
    if len < String.length magic || String.sub s 0 (String.length magic) <> magic
    then Error "not a dsf-flightlog/1 file (bad magic)"
    else begin
      pos := String.length magic;
      let n_meta = get_varint () in
      let meta =
        List.init n_meta (fun _ ->
            let k = get_string () in
            let v = get_varint () in
            k, v)
      in
      let n_names = get_varint () in
      let names = Array.init n_names (fun _ -> get_string ()) in
      let n_ints = get_varint () in
      let ints = Array.init n_ints (fun _ -> get_varint ()) in
      (* Validate record structure once here so every later walk can
         assume well-formed (tag, args) framing. *)
      let i = ref 0 in
      while !i < n_ints do
        let tag = ints.(!i) in
        if tag < 0 || tag >= Array.length arity then
          raise (Corrupt (Printf.sprintf "bad tag %d" tag));
        i := !i + 1 + arity.(tag)
      done;
      if !i <> n_ints then raise (Corrupt "truncated final record");
      Ok { l_meta = meta; l_names = names; l_ints = ints }
    end
  with Corrupt m -> Error ("corrupt flightlog: " ^ m)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (parse s)
  | exception Sys_error m ->
      (* [open_in_bin]'s message already names the path; a read error's
         does not. *)
      let prefix = path ^ ": " in
      Error (if String.starts_with ~prefix m then m else prefix ^ m)

(* The live recorder's log, as [parse (to_string t)] would return it. *)
let to_log t =
  {
    l_meta = t.meta;
    l_names = names_array t;
    l_ints = Array.sub t.master.ra 0 t.master.rlen;
  }

let log_meta l = l.l_meta

let iter_log_events l f =
  let i = ref 0 in
  let n = Array.length l.l_ints in
  while !i < n do
    let ev, next = decode_at l.l_ints l.l_names !i in
    f ev;
    i := next
  done

let log_events l =
  let acc = ref [] in
  iter_log_events l (fun ev -> acc := ev :: !acc);
  List.rev !acc

let log_event_count l =
  let c = ref 0 in
  iter_log_events l (fun _ -> incr c);
  !c

(* ------------------------------------------------------ causal analysis *)

(* A mail-consuming step (or nothing): the unit of the causal DAG.  [via]
   points at the deepest delivered message and, through it, at the
   sender's own step record — the parent chain IS the backtrace. *)
type step_rec = {
  sr_node : int;
  sr_ground : int;  (* global round of the step *)
  sr_depth : int;
  sr_via : via option;  (* None: origin step (no deeper mail consumed) *)
}

and via = {
  v_src : int;
  v_sent_g : int;  (* global round the message was sent *)
  v_bits : int;
  v_msg_depth : int;
  v_parent : step_rec option;  (* sender's step record at send time *)
}

type round_row = {
  rr_run : int;
  rr_local : int;
  mutable rr_steps : int;
  mutable rr_sends : int;
  mutable rr_bits : int;
  mutable rr_dropped : int;  (* fate-0 sends plus mail lost to crashes *)
  mutable rr_down : int;
  mutable rr_restarts : int;
}

type span_row = {
  sp_path : string;
  mutable sp_count : int;
  mutable sp_rounds : int;  (* global rounds covered, summed *)
  mutable sp_max_depth : int;  (* causal depth reached by close *)
  mutable sp_after_msg : bool;  (* closed once after the first message *)
}

type analysis = {
  a_meta : (string * int) list;
  a_n : int;  (* 1 + max node id seen (0 when no node events) *)
  a_rounds : round_row array;  (* indexed by global round *)
  a_runs : int;
  a_events : int;
  a_max_depth : int;
  a_deepest : step_rec option;
  a_last_rec : step_rec option array;
  a_steps : step_rec list array;  (* per node, newest first *)
  a_spans : span_row list;  (* first-opened order *)
  a_edges : ((int * int) * (int * int * int)) list;
      (* (src, dst) -> (msgs, bits, max chain depth), ranked *)
  a_recov : int * int * int;  (* retransmissions, restores, ckpt bits *)
}

(* Growable array of round rows. *)
type rows = { mutable rw : round_row array; mutable rwn : int }

let row_push rows r =
  if rows.rwn = Array.length rows.rw then begin
    let a = Array.make (Int.max 16 (2 * rows.rwn)) r in
    Array.blit rows.rw 0 a 0 rows.rwn;
    rows.rw <- a
  end;
  rows.rw.(rows.rwn) <- r;
  rows.rwn <- rows.rwn + 1

let analyze l =
  (* Pass 1: the node-id range. *)
  let max_node = ref (-1) in
  let events = ref 0 in
  iter_log_events l (fun ev ->
      incr events;
      match ev with
      | Step v | Down v | Restart v ->
          if v > !max_node then max_node := v
      | Send { src; dst; _ } ->
          if src > !max_node then max_node := src;
          if dst > !max_node then max_node := dst
      | _ -> ());
  let n = !max_node + 1 in
  let depth = Array.make (Int.max 1 n) 0 in
  let last_rec : step_rec option array = Array.make (Int.max 1 n) None in
  let steps : step_rec list array = Array.make (Int.max 1 n) [] in
  (* In-flight mail, per destination: [avail] is deliverable this round,
     [inflight] collects this round's surviving sends.  Touched lists keep
     the per-round reset O(traffic), not O(n). *)
  let avail : via list array = Array.make (Int.max 1 n) [] in
  let inflight : via list array = Array.make (Int.max 1 n) [] in
  let avail_touched = ref [] and inflight_touched = ref [] in
  let rows = { rw = [||]; rwn = 0 } in
  let g = ref (-1) in
  (* Global round index of the round currently open *)
  let runs = ref 0 in
  let cur = ref None in
  (* round_row of the open round *)
  let max_depth = ref 0 and deepest = ref None in
  let edges : (int * int, int ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let spans = Hashtbl.create 16 in
  let span_order = ref [] in
  let span_stack = ref [] in
  (* (name, path, open_g) innermost first *)
  let retrans = ref 0 and restores = ref 0 and ckpt = ref 0 in
  let row () =
    match !cur with
    | Some r -> r
    | None ->
        (* Events before any Round marker (possible only in hand-built
           logs): attribute them to a synthetic round 0. *)
        let r =
          {
            rr_run = 0;
            rr_local = 0;
            rr_steps = 0;
            rr_sends = 0;
            rr_bits = 0;
            rr_dropped = 0;
            rr_down = 0;
            rr_restarts = 0;
          }
        in
        cur := Some r;
        g := 0;
        runs := 1;
        row_push rows r;
        r
  in
  iter_log_events l (function
    | Round local ->
        (* Barrier: this round's sends become next round's deliveries. *)
        List.iter (fun v -> avail.(v) <- []) !avail_touched;
        avail_touched := [];
        if local = 0 then begin
          (* New run: mail in flight across the boundary is dead. *)
          incr runs;
          List.iter (fun v -> inflight.(v) <- []) !inflight_touched;
          inflight_touched := []
        end;
        List.iter
          (fun v ->
            avail.(v) <- List.rev inflight.(v);
            inflight.(v) <- [])
          !inflight_touched;
        avail_touched := !inflight_touched;
        inflight_touched := [];
        incr g;
        let r =
          {
            rr_run = !runs;
            rr_local = local;
            rr_steps = 0;
            rr_sends = 0;
            rr_bits = 0;
            rr_dropped = 0;
            rr_down = 0;
            rr_restarts = 0;
          }
        in
        cur := Some r;
        row_push rows r
    | Step v ->
        let r = row () in
        r.rr_steps <- r.rr_steps + 1;
        let mail = avail.(v) in
        avail.(v) <- [];
        (* Deepest delivered message, first-in-arrival-order on ties. *)
        let best =
          List.fold_left
            (fun acc m ->
              match acc with
              | Some b when b.v_msg_depth >= m.v_msg_depth -> acc
              | _ -> Some m)
            None mail
        in
        let d =
          match best with
          | Some m -> Int.max depth.(v) m.v_msg_depth
          | None -> depth.(v)
        in
        let rec_ = { sr_node = v; sr_ground = !g; sr_depth = d; sr_via = best } in
        depth.(v) <- d;
        last_rec.(v) <- Some rec_;
        steps.(v) <- rec_ :: steps.(v);
        if d > !max_depth then begin
          max_depth := d;
          deepest := Some rec_
        end
    | Send { src; dst; bits; fate } ->
        let r = row () in
        r.rr_sends <- r.rr_sends + 1;
        r.rr_bits <- r.rr_bits + bits;
        let md = depth.(src) + 1 in
        (let msgs, total, dmax =
           match Hashtbl.find_opt edges (src, dst) with
           | Some e -> e
           | None ->
               let e = (ref 0, ref 0, ref 0) in
               Hashtbl.add edges (src, dst) e;
               e
         in
         incr msgs;
         total := !total + bits;
         if md > !dmax then dmax := md);
        if fate = 0 then r.rr_dropped <- r.rr_dropped + 1
        else begin
          if inflight.(dst) = [] then inflight_touched := dst :: !inflight_touched;
          (* Replicated copies are causally identical — stage one. *)
          inflight.(dst) <-
            {
              v_src = src;
              v_sent_g = !g;
              v_bits = bits;
              v_msg_depth = md;
              v_parent = last_rec.(src);
            }
            :: inflight.(dst)
        end
    | Down v ->
        let r = row () in
        r.rr_down <- r.rr_down + 1;
        r.rr_dropped <- r.rr_dropped + List.length avail.(v);
        avail.(v) <- []
    | Restart v ->
        let r = row () in
        r.rr_restarts <- r.rr_restarts + 1;
        (* Crash-restart resets the node's state: its causal history is
           gone (checkpointed recovery re-arrives through messages). *)
        depth.(v) <- 0;
        last_rec.(v) <- None
    | Span_open name ->
        let parent_path =
          match !span_stack with [] -> "" | (_, p, _) :: _ -> p ^ "/"
        in
        span_stack := (name, parent_path ^ name, !g) :: !span_stack
    | Span_close name ->
        (match !span_stack with
        | (n', path, g0) :: rest when n' = name ->
            span_stack := rest;
            let rowv =
              match Hashtbl.find_opt spans path with
              | Some r -> r
              | None ->
                  let r =
                    { sp_path = path; sp_count = 0; sp_rounds = 0;
                      sp_max_depth = 0; sp_after_msg = false }
                  in
                  Hashtbl.add spans path r;
                  span_order := path :: !span_order;
                  r
            in
            rowv.sp_count <- rowv.sp_count + 1;
            rowv.sp_rounds <- rowv.sp_rounds + (Int.max 0 (!g - g0));
            if !max_depth > rowv.sp_max_depth then
              rowv.sp_max_depth <- !max_depth;
            if Hashtbl.length edges > 0 then rowv.sp_after_msg <- true
        | _ -> () (* unmatched close: tolerate, the writer is stack-shaped *))
    | Recovery { retransmissions; restores = rs; checkpoint_bits } ->
        retrans := !retrans + retransmissions;
        restores := !restores + rs;
        ckpt := !ckpt + checkpoint_bits);
  let edges_ranked =
    Hashtbl.fold (fun k (m, b, d) acc -> (k, (!m, !b, !d)) :: acc) edges []
    |> List.sort (fun ((sa, da), (_, ba, _)) ((sb, db), (_, bb, _)) ->
           let c = Int.compare bb ba in
           if c <> 0 then c
           else
             let c = Int.compare sa sb in
             if c <> 0 then c else Int.compare da db)
  in
  {
    a_meta = log_meta l;
    a_n = n;
    a_rounds = Array.sub rows.rw 0 rows.rwn;
    a_runs = !runs;
    a_events = !events;
    a_max_depth = !max_depth;
    a_deepest = !deepest;
    a_last_rec = last_rec;
    a_steps = steps;
    a_spans =
      List.rev_map (fun p -> Hashtbl.find spans p) !span_order;
    a_edges = edges_ranked;
    a_recov = (!retrans, !restores, !ckpt);
  }

let max_depth a = a.a_max_depth
let total_rounds a = Array.length a.a_rounds
let run_count a = a.a_runs

(* --------------------------------------------------------------- queries *)

let pp_summary ppf a =
  let retrans, restores, ckpt = a.a_recov in
  Format.fprintf ppf
    "flightlog: %d events, %d global rounds over %d run(s), %d node(s), %d \
     span path(s)@."
    a.a_events (Array.length a.a_rounds) a.a_runs a.a_n
    (List.length a.a_spans);
  Format.fprintf ppf "max causal depth: %d@." a.a_max_depth;
  if retrans > 0 || restores > 0 || ckpt > 0 then
    Format.fprintf ppf
      "recovery: %d retransmission(s), %d restore(s), %d checkpoint bit(s)@."
      retrans restores ckpt;
  (match a.a_meta with
  | [] -> ()
  | meta ->
      Format.fprintf ppf "meta:";
      List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) meta;
      Format.fprintf ppf "@.")

let find_rec a ~node ~round =
  if node < 0 || node >= a.a_n then None
  else List.find_opt (fun r -> r.sr_ground <= round) a.a_steps.(node)

let why_hop_limit = 48

let pp_why ~node ?round ppf a =
  let round =
    match round with Some r -> r | None -> Array.length a.a_rounds - 1
  in
  match find_rec a ~node ~round with
  | None ->
      Format.fprintf ppf
        "node %d consumed no mail at or before global round %d: its state is \
         causally original (depth 0)@."
        node round
  | Some r0 ->
      Format.fprintf ppf
        "why node %d (as of global round %d): last state change at round %d, \
         causal depth %d@."
        node round r0.sr_ground r0.sr_depth;
      let rec walk r hops =
        if hops >= why_hop_limit then
          Format.fprintf ppf "  ... (chain truncated at %d hops)@."
            why_hop_limit
        else
          match r.sr_via with
          | None ->
              Format.fprintf ppf
                "  origin: node %d stepped at round %d with no deeper mail@."
                r.sr_node r.sr_ground
          | Some v ->
              Format.fprintf ppf
                "  r%-5d node %d consumed %d-bit message from node %d (sent \
                 r%d, chain depth %d)@."
                r.sr_ground r.sr_node v.v_bits v.v_src v.v_sent_g
                v.v_msg_depth;
              (match v.v_parent with
              | Some p -> walk p (hops + 1)
              | None ->
                  Format.fprintf ppf
                    "  origin: node %d sent from its initial state (depth 0)@."
                    v.v_src)
      in
      walk r0 0

let pp_round_row ppf (r : round_row) ~g =
  Format.fprintf ppf
    "round %d (run %d, local %d): steps=%d sends=%d bits=%d dropped=%d \
     down=%d restarts=%d"
    g r.rr_run r.rr_local r.rr_steps r.rr_sends r.rr_bits r.rr_dropped
    r.rr_down r.rr_restarts

let pp_diff ~r1 ~r2 ppf a =
  let n = Array.length a.a_rounds in
  let ok r = r >= 0 && r < n in
  if not (ok r1 && ok r2) then
    Format.fprintf ppf
      "rounds out of range: have %d global round(s), asked for %d and %d@." n
      r1 r2
  else begin
    let a1 = a.a_rounds.(r1) and a2 = a.a_rounds.(r2) in
    Format.fprintf ppf "%a@.%a@." (pp_round_row ~g:r1) a1 (pp_round_row ~g:r2)
      a2;
    Format.fprintf ppf
      "delta (r%d - r%d): steps%+d sends%+d bits%+d dropped%+d down%+d \
       restarts%+d@."
      r2 r1 (a2.rr_steps - a1.rr_steps) (a2.rr_sends - a1.rr_sends)
      (a2.rr_bits - a1.rr_bits)
      (a2.rr_dropped - a1.rr_dropped)
      (a2.rr_down - a1.rr_down)
      (a2.rr_restarts - a1.rr_restarts)
  end

(* The paper bound for the instance, from recorded metadata: Lenzen &
   Patt-Shamir run in Õ(sqrt(min(s·t, n)) + D) rounds, with [s] the
   shortest-path diameter and [t] the number of terminals; the polylog we
   print is a single log2(n) factor — a concrete yardstick, not a claim
   about constants. *)
let paper_bound meta =
  let find k = List.assoc_opt k meta in
  match find "s", find "t", find "n", find "D" with
  | Some s, Some t, Some n, Some d when n > 0 ->
      let st = float_of_int s *. float_of_int t in
      let inner = Float.min st (float_of_int n) in
      let lg = Float.max 1.0 (Float.log (float_of_int n) /. Float.log 2.0) in
      Some ((sqrt inner *. lg) +. float_of_int d, s, t, n, d)
  | _ -> None

let pp_critical_path ppf a =
  Format.fprintf ppf
    "critical path: causal depth %d over %d global round(s), %d run(s)@."
    a.a_max_depth
    (Array.length a.a_rounds)
    a.a_runs;
  (match a.a_deepest with
  | Some r ->
      Format.fprintf ppf "  deepest chain ends at node %d, round %d@."
        r.sr_node r.sr_ground
  | None -> ());
  (match paper_bound a.a_meta with
  | Some (bound, s, t, n, d) ->
      Format.fprintf ppf
        "  paper bound sqrt(min(s*t, n))*log2(n) + D = %.1f  (s=%d t=%d n=%d \
         D=%d)@."
        bound s t n d
  | None ->
      Format.fprintf ppf
        "  paper bound: unavailable (metadata lacks s/t/n/D)@.");
  (* In a log with messages, a span that closed before the first one
     (the [paths.parameters] sweep of a recorded solve) has no chain to
     attribute. *)
  match
    if a.a_edges = [] then a.a_spans
    else List.filter (fun sp -> sp.sp_after_msg) a.a_spans
  with
  | [] -> ()
  | spans ->
      Format.fprintf ppf "  per span (depth reached by close):@.";
      List.iter
        (fun sp ->
          Format.fprintf ppf "    %-40s count=%-3d rounds=%-6d max_depth=%d@."
            sp.sp_path sp.sp_count sp.sp_rounds sp.sp_max_depth)
        spans

let pp_hot_edges ?(limit = 10) ppf a =
  match a.a_edges with
  | [] -> Format.fprintf ppf "no traffic recorded@."
  | edges ->
      Format.fprintf ppf "hot edges (by causal load, top %d of %d):@." limit
        (List.length edges);
      List.iteri
        (fun i ((src, dst), (msgs, bits, dmax)) ->
          if i < limit then
            Format.fprintf ppf
              "  %4d -> %-4d bits=%-8d msgs=%-6d max_chain_depth=%d@." src dst
              bits msgs dmax)
        edges
