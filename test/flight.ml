(* Flight-recorder taps shared by the test suites.  The recorder is the
   one per-message tap, so a test that needs a run's sends records the
   run and reads them back from the log. *)

open Dsf_congest

(* A constant-clock telemetry carrying a fresh [~now:0] recorder, so
   logs compare byte for byte. *)
let telemetry () =
  let r = Recorder.create ~now:0 () in
  r, Telemetry.create ~clock:(fun () -> 0L) ~recorder:r ()

(* A run environment on [network] that records into a fresh recorder. *)
let env ?(network = Sim.Lossless) () =
  let r, tel = telemetry () in
  r, { Sim.default_env with telemetry = Some tel; network }

(* [record ?network f] runs [f] on a recording env and returns its
   result with the serialized log. *)
let record ?network f =
  let r, env = env ?network () in
  let x = f env in
  x, Recorder.to_string r

let events_of_string s =
  match Recorder.parse s with
  | Ok log -> Recorder.log_events log
  | Error e -> Alcotest.failf "flightlog does not parse: %s" e

let events r = events_of_string (Recorder.to_string r)

(* The (src, dst, bits) of every [Send], in send order, whatever its
   fate. *)
let sends_of_events =
  List.filter_map (function
    | Recorder.Send { src; dst; bits; _ } -> Some (src, dst, bits)
    | _ -> None)

let sends r = sends_of_events (events r)
let sends_of_string s = sends_of_events (events_of_string s)

(* A log's events without its telemetry span markers: what a classic
   oracle, which opens no spans, and a primitive's native port share. *)
let unspanned s =
  List.filter
    (function Recorder.Span_open _ | Recorder.Span_close _ -> false | _ -> true)
    (events_of_string s)

let rounds events =
  List.length
    (List.filter (function Recorder.Round _ -> true | _ -> false) events)
