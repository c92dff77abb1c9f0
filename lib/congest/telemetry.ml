(* Span-based phase profiler + round-level engine metrics + trace sinks.

   A [Telemetry.t] owns three kinds of state:

   - a {b span tree}: [span t "voronoi" (fun () -> ...)] opens a nested
     phase; everything the engine (every run whose {!Sim.env} carries
     this telemetry) and the ledger charges ({!Sim.charge}) report while
     the thunk runs is attributed to that span.  Same-named siblings merge into one node
     (with a [count]), so a loop of phases profiles as one aggregated
     entry while the event log below still records each occurrence;

   - an {b event log}: one entry per span occurrence (begin time, duration,
     self-attributed rounds/bits), which the JSONL and Chrome
     [trace_event] sinks replay;

   - a {b metrics registry} ({!Dsf_util.Metrics}): deterministic counters
     and histograms of the engine's per-round series (active-set size,
     delivered messages, bits per round).

   Attribution is to the {e innermost} open span ("self" numbers); the
   console sink rolls children up into their parents, so the tree reads
   inclusively.  Wall-clock reads are centralized here ([now_ns]; dsf-lint
   forbids them elsewhere in lib/) and injectable ([?clock]) so tests and
   pooled trials stay deterministic.

   Domain-safety: a [t] is single-domain mutable state, and so is the
   flight recorder it carries.  Pooled fan-outs give each trial its own
   {!fork} (created sequentially before the fan-out, with its own
   recorder when the parent has one) and {!merge_into} the parent in
   trial order afterwards — bit-identical to the single-domain run for
   any jobs value, the same discipline as per-trial ledgers. *)

module Metrics = Dsf_util.Metrics
module Histogram = Dsf_util.Histogram

(* The one sanctioned wall-clock read in lib/ (see the dsf-lint `nondet'
   rule): every other module takes its time from a telemetry clock. *)
let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

type span = {
  name : string;
  mutable count : int;  (* occurrences (same-named siblings merge) *)
  mutable wall_ns : int64;
  mutable rounds : int;
  mutable messages : int;
  mutable bits : int;
  mutable max_edge_round_bits : int;
  mutable budget_violations : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable retransmissions : int;
  mutable ledger_charged : int;
  mutable children : span list;  (* first-opened first *)
}

type event = {
  ev_name : string;
  ev_tid : int;
  ev_start_ns : int64;  (* relative to the telemetry epoch *)
  ev_dur_ns : int64;
  ev_rounds : int;  (* self-attributed during this occurrence *)
  ev_bits : int;
}

type t = {
  clock : unit -> int64;
  epoch : int64;
  tid : int;
  next_tid : int ref;  (* shared with forks; bump sequentially only *)
  root : span;
  mutable stack : span list;  (* innermost first; root always last *)
  mutable events : event list;  (* newest first *)
  metrics : Metrics.t;
  recorder : Recorder.t option;  (* flight recorder riding along, if any *)
}

let make_span name =
  {
    name;
    count = 0;
    wall_ns = 0L;
    rounds = 0;
    messages = 0;
    bits = 0;
    max_edge_round_bits = 0;
    budget_violations = 0;
    dropped = 0;
    duplicated = 0;
    retransmissions = 0;
    ledger_charged = 0;
    children = [];
  }

let create ?clock ?recorder () =
  let clock = match clock with Some c -> c | None -> now_ns in
  let root = make_span "total" in
  root.count <- 1;
  {
    clock;
    epoch = clock ();
    tid = 0;
    next_tid = ref 1;
    root;
    stack = [ root ];
    events = [];
    metrics = Metrics.create ();
    recorder;
  }

let recorder t = t.recorder

let root t = t.root
let root_spans t = t.root.children
let metrics t = t.metrics

let cur t = match t.stack with s :: _ -> s | [] -> t.root

let find t path =
  let rec go s = function
    | [] -> Some s
    | name :: rest -> (
        match List.find_opt (fun c -> c.name = name) s.children with
        | Some c -> go c rest
        | None -> None)
  in
  match path with [] -> None | _ -> go t.root path

(* ------------------------------------------------------------- spans *)

let span t name f =
  let parent = cur t in
  let s =
    match List.find_opt (fun c -> c.name = name) parent.children with
    | Some s -> s
    | None ->
        let s = make_span name in
        parent.children <- parent.children @ [ s ];
        s
  in
  s.count <- s.count + 1;
  t.stack <- s :: t.stack;
  (* Cross-link into the flight recorder: span boundaries carry only the
     name (interned in the log), never the wall time, so recorded streams
     stay byte-deterministic. *)
  (match t.recorder with Some r -> Recorder.span_open r name | None -> ());
  let t0 = t.clock () in
  let rounds0 = s.rounds and bits0 = s.bits in
  Fun.protect
    ~finally:(fun () ->
      (match t.recorder with
      | Some r -> Recorder.span_close r name
      | None -> ());
      let dur = Int64.sub (t.clock ()) t0 in
      s.wall_ns <- Int64.add s.wall_ns dur;
      (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
      t.events <-
        {
          ev_name = name;
          ev_tid = t.tid;
          ev_start_ns = Int64.sub t0 t.epoch;
          ev_dur_ns = dur;
          ev_rounds = s.rounds - rounds0;
          ev_bits = s.bits - bits0;
        }
        :: t.events)
    f

let span_opt tel name f =
  match tel with None -> f () | Some t -> span t name f

(* ------------------------------------------------- engine attribution *)

let sim_round t ~stepped ~delivered ~bits =
  Metrics.incr t.metrics "sim/rounds" 1;
  Metrics.observe t.metrics "sim/stepped_per_round" stepped;
  Metrics.observe t.metrics "sim/delivered_per_round" delivered;
  Metrics.observe t.metrics "sim/bits_per_round" bits

let sim_run t ~rounds ~messages ~bits ~max_edge_round_bits ~budget_violations
    ~dropped ~duplicated ~retransmissions =
  Metrics.incr t.metrics "sim/runs" 1;
  let s = cur t in
  s.rounds <- s.rounds + rounds;
  s.messages <- s.messages + messages;
  s.bits <- s.bits + bits;
  if max_edge_round_bits > s.max_edge_round_bits then
    s.max_edge_round_bits <- max_edge_round_bits;
  s.budget_violations <- s.budget_violations + budget_violations;
  s.dropped <- s.dropped + dropped;
  s.duplicated <- s.duplicated + duplicated;
  s.retransmissions <- s.retransmissions + retransmissions

let charge t rounds =
  let s = cur t in
  s.ledger_charged <- s.ledger_charged + rounds

(* ------------------------------------------------------- fork / merge *)

let fork t =
  let tid = !(t.next_tid) in
  t.next_tid := tid + 1;
  let root = make_span "total" in
  root.count <- 1;
  {
    clock = t.clock;
    epoch = t.epoch;
    tid;
    next_tid = t.next_tid;
    root;
    stack = [ root ];
    events = [];
    metrics = Metrics.create ();
    (* A recorder is single-writer, so concurrent trials each write their
       own; [merge_into] appends them to the parent's in trial order. *)
    recorder = Option.map (fun _ -> Recorder.create ~now:0 ()) t.recorder;
  }

let rec copy_span s =
  {
    s with
    children = List.map copy_span s.children;
  }

let rec graft parent s =
  match List.find_opt (fun c -> c.name = s.name) parent.children with
  | None -> parent.children <- parent.children @ [ copy_span s ]
  | Some c ->
      c.count <- c.count + s.count;
      c.wall_ns <- Int64.add c.wall_ns s.wall_ns;
      c.rounds <- c.rounds + s.rounds;
      c.messages <- c.messages + s.messages;
      c.bits <- c.bits + s.bits;
      if s.max_edge_round_bits > c.max_edge_round_bits then
        c.max_edge_round_bits <- s.max_edge_round_bits;
      c.budget_violations <- c.budget_violations + s.budget_violations;
      c.dropped <- c.dropped + s.dropped;
      c.duplicated <- c.duplicated + s.duplicated;
      c.retransmissions <- c.retransmissions + s.retransmissions;
      c.ledger_charged <- c.ledger_charged + s.ledger_charged;
      List.iter (graft c) s.children

let merge_into ~dst child =
  let target = cur dst in
  List.iter (graft target) child.root.children;
  dst.events <- child.events @ dst.events;
  Metrics.merge_into ~dst:dst.metrics child.metrics;
  match dst.recorder, child.recorder with
  | Some d, Some c -> Recorder.merge_into ~dst:d c
  | _ -> ()

(* -------------------------------------------------------------- sinks *)

(* Inclusive rollup: self plus all descendants, as a childless span. *)
let rec inclusive s =
  List.fold_left
    (fun acc c ->
      let ci = inclusive c in
      {
        acc with
        rounds = acc.rounds + ci.rounds;
        messages = acc.messages + ci.messages;
        bits = acc.bits + ci.bits;
        max_edge_round_bits =
          Int.max acc.max_edge_round_bits ci.max_edge_round_bits;
        budget_violations = acc.budget_violations + ci.budget_violations;
        dropped = acc.dropped + ci.dropped;
        duplicated = acc.duplicated + ci.duplicated;
        retransmissions = acc.retransmissions + ci.retransmissions;
        ledger_charged = acc.ledger_charged + ci.ledger_charged;
      })
    { s with children = [] }
    s.children

let ms_of_ns ns = Int64.to_float ns /. 1e6

let pp ppf t =
  Format.fprintf ppf "@[<v>span tree (sim metrics inclusive of children):@,";
  let rec go depth s =
    let i = inclusive s in
    let pad = String.make (2 * depth) ' ' in
    Format.fprintf ppf "%s%-*s count=%-3d wall=%.3fms rounds=%d msgs=%d bits=%d"
      pad
      (Int.max 1 (36 - (2 * depth)))
      s.name s.count (ms_of_ns s.wall_ns) i.rounds i.messages i.bits;
    if i.max_edge_round_bits > 0 then
      Format.fprintf ppf " merb=%d" i.max_edge_round_bits;
    if i.budget_violations > 0 then
      Format.fprintf ppf " violations=%d" i.budget_violations;
    if i.ledger_charged > 0 then
      Format.fprintf ppf " charged=%d" i.ledger_charged;
    if i.dropped > 0 || i.duplicated > 0 || i.retransmissions > 0 then
      Format.fprintf ppf " dropped=%d duplicated=%d retransmissions=%d"
        i.dropped i.duplicated i.retransmissions;
    Format.fprintf ppf "@,";
    List.iter (go (depth + 1)) s.children
  in
  (match t.root.children with
  | [] -> Format.fprintf ppf "  (no spans recorded)@,"
  | cs -> List.iter (go 1) cs);
  Format.fprintf ppf "metrics:@,  @[<v>%a@]@]" Metrics.pp t.metrics

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let chronological_events t = List.rev t.events

let rec flat_spans prefix s =
  let path = if prefix = "" then s.name else prefix ^ "/" ^ s.name in
  (path, s) :: List.concat_map (flat_spans path) s.children

let profile_rows t = List.concat_map (flat_spans "") t.root.children

let to_jsonl_string t =
  let b = Buffer.create 4096 in
  let events = chronological_events t in
  Buffer.add_string b
    (Printf.sprintf
       "{\"type\": \"meta\", \"schema\": \"dsf-telemetry/1\", \"events\": %d}\n"
       (List.length events));
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"type\": \"span\", \"name\": \"%s\", \"tid\": %d, \"start_ns\": \
            %Ld, \"dur_ns\": %Ld, \"rounds\": %d, \"bits\": %d}\n"
           (json_escape e.ev_name) e.ev_tid e.ev_start_ns e.ev_dur_ns
           e.ev_rounds e.ev_bits))
    events;
  List.iter
    (fun (path, s) ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"type\": \"profile\", \"path\": \"%s\", \"count\": %d, \
            \"wall_ns\": %Ld, \"rounds\": %d, \"messages\": %d, \"bits\": %d, \
            \"max_edge_round_bits\": %d, \"budget_violations\": %d, \
            \"dropped\": %d, \"duplicated\": %d, \"retransmissions\": %d, \
            \"ledger_charged\": %d}\n"
           (json_escape path) s.count s.wall_ns s.rounds s.messages s.bits
           s.max_edge_round_bits s.budget_violations s.dropped s.duplicated
           s.retransmissions s.ledger_charged))
    (profile_rows t);
  List.iter
    (fun (name, v) ->
      match v with
      | `Counter c ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"type\": \"counter\", \"name\": \"%s\", \"value\": %d}\n"
               (json_escape name) c)
      | `Histogram h ->
          let buckets =
            Histogram.buckets h
            |> List.map (fun (i, c) -> Printf.sprintf "[%d, %d]" i c)
            |> String.concat ", "
          in
          Buffer.add_string b
            (Printf.sprintf
               "{\"type\": \"histogram\", \"name\": \"%s\", \"count\": %d, \
                \"sum\": %d, \"min\": %d, \"max\": %d, \"buckets\": [%s]}\n"
               (json_escape name) (Histogram.count h) (Histogram.sum h)
               (Histogram.min_value h) (Histogram.max_value h) buckets))
    (Metrics.items t.metrics);
  Buffer.contents b

let to_chrome_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  Buffer.add_string b
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
     \"args\": {\"name\": \"dsf\"}}";
  for tid = 0 to !(t.next_tid) - 1 do
    Buffer.add_string b
      (Printf.sprintf
         ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": \
          %d, \"args\": {\"name\": \"%s\"}}"
         tid
         (if tid = 0 then "main" else Printf.sprintf "trial %d" tid))
  done;
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
            \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"rounds\": %d, \"bits\": \
            %d}}"
           (json_escape e.ev_name) e.ev_tid
           (Int64.to_float e.ev_start_ns /. 1e3)
           (Int64.to_float e.ev_dur_ns /. 1e3)
           e.ev_rounds e.ev_bits))
    (chronological_events t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

type sink_format = Console | Jsonl | Chrome

let sink_format_of_string = function
  | "console" -> Ok Console
  | "jsonl" -> Ok Jsonl
  | "chrome" -> Ok Chrome
  | other ->
      Error
        (Printf.sprintf
           "unknown trace format %S (expected console | jsonl | chrome)" other)

let sink_format_for ?format path =
  match format with
  | Some f -> sink_format_of_string f
  | None when Filename.check_suffix path ".json" -> Ok Chrome
  | None when Filename.check_suffix path ".jsonl" -> Ok Jsonl
  | None -> Ok Console

let write_file t ~format path =
  let write oc =
    match format with
    | Console ->
        let ppf = Format.formatter_of_out_channel oc in
        Format.fprintf ppf "%a@." pp t
    | Jsonl -> output_string oc (to_jsonl_string t)
    | Chrome -> output_string oc (to_chrome_string t)
  in
  if path = "-" then write stdout
  else
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)
