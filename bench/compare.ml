(* BENCH_sim.json regression diff.

   [run ~old_path ~new_path ~tol ~strict] loads two benchmark JSON files
   (the committed baseline and a freshly generated one), matches rows by
   their identity fields, and classifies every shared numeric/boolean
   metric:

   - exact    — deterministic outputs of the simulation (rounds, messages,
                bits, weight, check sums, fault counters).  Any mismatch
                is a regression: these do not depend on the machine.
   - guarded  — allocation footprints (minor words per run/round).  NEW
                may be worse than OLD by at most [tol] percent.  Across
                modes (subset) breaches downgrade to advisories: per-round
                amortization depends on each mode's run counts.
   - timing   — wall-clock figures (ns, rounds/s, speedups, r^2).  Noise
                across machines; breaches are advisory unless [strict].

   Rows present in OLD but absent from NEW are regressions in sections
   carrying exact metrics (coverage loss), advisory in the purely timing
   sections (speedups).  When the two files were written by different
   modes (a `micro` baseline against a `smoke` CI run) the NEW file is a
   declared subset, so missing rows downgrade to notes — only rows
   measured by both gate.  Rows or fields only in NEW are notes — a
   widened benchmark suite is not a regression.  Guarded and timing
   metrics that moved past [tol] in the better direction are listed
   under a heading of their own after the diff and counted in the
   summary line; an improvement never changes the exit status.  Exit
   status: 0 clean, 1 regression, 2 parse/I-O error. *)

(* ------------------------------------------------------------- tiny JSON *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if next () <> c then fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
          (match next () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              (* Keep the escape verbatim: identity keys here are ASCII. *)
              Buffer.add_string b "\\u";
              for _ = 1 to 4 do
                Buffer.add_char b (next ())
              done
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ())
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> skip_ws (); members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elems (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
    | '"' -> Str (parse_string ())
    | 't' ->
        pos := !pos + 4;
        Bool true
    | 'f' ->
        pos := !pos + 5;
        Bool false
    | 'n' ->
        pos := !pos + 4;
        Null
    | c when c = '-' || (c >= '0' && c <= '9') ->
        let start = !pos in
        let num_char c =
          (c >= '0' && c <= '9')
          || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while !pos < n && num_char s.[!pos] do
          incr pos
        done;
        let tok = String.sub s start (!pos - start) in
        Num (try float_of_string tok with Failure _ -> fail "bad number")
    | c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let load path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> raise (Bad (Printf.sprintf "cannot open %s: %s" path msg))
  in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  try parse s with Bad msg -> raise (Bad (Printf.sprintf "%s: %s" path msg))

(* ----------------------------------------------------- metric classes *)

type cls = Identity | Exact | Guarded | Timing

let exact_fields =
  [
    "rounds"; "rounds_per_run"; "base_rounds"; "recovery_rounds";
    "lossless_rounds"; "hardened_rounds"; "hardened_messages"; "messages";
    "bits"; "weight"; "check"; "count"; "max_edge_round_bits";
    "ledger_charged"; "dropped"; "retransmissions";
    "restores"; "checkpoint_bits"; "states_match"; "masked"; "events";
    "log_bytes";
  ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let classify field =
  match field with
  | "name" | "workload" | "path" | "n" | "jobs" | "drop" | "crash_windows" ->
      Identity
  | "minor_words_per_run" | "minor_words_per_round" -> Guarded
  | f when List.mem f exact_fields -> Exact
  | f
    when Filename.check_suffix f "_ns"
         || Filename.check_suffix f "_per_sec"
         || Filename.check_suffix f "_pct"
         || contains_sub f "ns_per" || contains_sub f "speedup" ->
      Timing
  | "r_square" | "saturated" | "wall_overhead" | "overhead" -> Timing
  | _ -> Exact (* unknown fields: safest to demand equality *)

(* true when a larger NEW value is an improvement, not a cost *)
let higher_is_better field =
  Filename.check_suffix field "_per_sec"
  || contains_sub field "speedup" || field = "r_square"

(* Sections with no exact payload: a missing row there is advisory. *)
let timing_only_section = function
  | "speedups" -> true
  | _ -> false

(* ------------------------------------------------------------- matching *)

let fstr = function
  | Str s -> s
  | Num x ->
      if Float.is_integer x then string_of_int (int_of_float x)
      else Printf.sprintf "%.2f" x
  | Bool b -> string_of_bool b
  | Null -> "null"
  | Arr _ -> "<array>"
  | Obj _ -> "<object>"

let row_key fields =
  fields
  |> List.filter (fun (k, _) -> classify k = Identity)
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (fstr v))
  |> String.concat " "

type tally = {
  mutable compared : int;
  mutable regressions : int;
  mutable advisories : int;
  mutable notes : int;
  mutable improved : string list;  (** one line per improvement; reversed *)
}

let breach_pct ~old_v ~new_v ~better_high =
  (* Positive when NEW is worse than OLD, as a percentage of OLD. *)
  if old_v = 0. then (if new_v = old_v then 0. else infinity)
  else
    let delta = (new_v -. old_v) /. Float.abs old_v *. 100. in
    if better_high then -.delta else delta

(* Record a metric that got better by more than [tol] percent ([pct] is
   negative when NEW is better). *)
let improved t ~tol ~section ~key ~field old_v new_v pct =
  if -.pct > tol then
    t.improved <-
      Printf.sprintf "%s [%s]: %s %s -> %s (%.1f%% better)" section key field
        (fstr old_v) (fstr new_v) (-.pct)
      :: t.improved

let rec compare_rows t ~strict ~tol ~subset ~section ~key old_fields new_fields
    =
  let say fmt = Format.printf ("    " ^^ fmt ^^ "@.") in
  List.iter
    (fun (field, old_v) ->
      if classify field <> Identity then
        match List.assoc_opt field new_fields with
        | None ->
            t.regressions <- t.regressions + 1;
            say "REGRESSION %s [%s]: field %S missing from NEW" section key field
        | Some new_v -> (
            t.compared <- t.compared + 1;
            match old_v, new_v, classify field with
            | Arr old_rows, Arr new_rows, _ ->
                (* nested row table, e.g. parallel_scaling .runs *)
                compare_tables t ~strict ~tol ~subset
                  ~section:(section ^ "." ^ field) old_rows new_rows
            | Null, Null, _ -> ()
            | _, _, Exact ->
                let eq =
                  match old_v, new_v with
                  | Num a, Num b -> a = b
                  | Bool a, Bool b -> a = b
                  | Str a, Str b -> a = b
                  | _ -> false
                in
                if not eq then begin
                  t.regressions <- t.regressions + 1;
                  say "REGRESSION %s [%s]: %s %s -> %s (must be equal)" section
                    key field (fstr old_v) (fstr new_v)
                end
            | Num a, Num b, Guarded ->
                let pct = breach_pct ~old_v:a ~new_v:b ~better_high:false in
                improved t ~tol ~section ~key ~field old_v new_v pct;
                if pct > tol then
                  if subset then begin
                    (* cross-mode: amortization over different run counts *)
                    t.advisories <- t.advisories + 1;
                    say "advisory   %s [%s]: %s %s -> %s (+%.1f%%, cross-mode)"
                      section key field (fstr old_v) (fstr new_v) pct
                  end
                  else begin
                    t.regressions <- t.regressions + 1;
                    say "REGRESSION %s [%s]: %s %s -> %s (+%.1f%% > %.0f%%)"
                      section key field (fstr old_v) (fstr new_v) pct tol
                  end
            | Num a, Num b, Timing ->
                let pct =
                  breach_pct ~old_v:a ~new_v:b
                    ~better_high:(higher_is_better field)
                in
                improved t ~tol ~section ~key ~field old_v new_v pct;
                if pct > tol then
                  if strict then begin
                    t.regressions <- t.regressions + 1;
                    say "REGRESSION %s [%s]: %s %s -> %s (%.1f%% worse, strict)"
                      section key field (fstr old_v) (fstr new_v) pct
                  end
                  else begin
                    t.advisories <- t.advisories + 1;
                    say "advisory   %s [%s]: %s %s -> %s (%.1f%% worse)" section
                      key field (fstr old_v) (fstr new_v) pct
                  end
            | _, _, (Guarded | Timing) ->
                (* null <-> number flips on noisy metrics, bool timing flags *)
                if old_v <> new_v then begin
                  t.notes <- t.notes + 1;
                  say "note       %s [%s]: %s %s -> %s" section key field
                    (fstr old_v) (fstr new_v)
                end
            | _, _, Identity -> ()))
    old_fields;
  List.iter
    (fun (field, _) ->
      if classify field <> Identity && List.assoc_opt field old_fields = None
      then begin
        t.notes <- t.notes + 1;
        say "note       %s [%s]: new field %S (not in baseline)" section key
          field
      end)
    new_fields

and compare_tables t ~strict ~tol ~subset ~section old_rows new_rows =
  let say fmt = Format.printf ("    " ^^ fmt ^^ "@.") in
  let fields = function Obj f -> f | _ -> [] in
  let new_keyed = List.map (fun r -> row_key (fields r), r) new_rows in
  List.iter
    (fun old_row ->
      let key = row_key (fields old_row) in
      match List.assoc_opt key new_keyed with
      | Some new_row ->
          compare_rows t ~strict ~tol ~subset ~section ~key (fields old_row)
            (fields new_row)
      | None ->
          if subset then begin
            t.notes <- t.notes + 1;
            say "note       %s [%s]: not measured by NEW's mode" section key
          end
          else if timing_only_section section then begin
            t.advisories <- t.advisories + 1;
            say "advisory   %s [%s]: row missing from NEW" section key
          end
          else begin
            t.regressions <- t.regressions + 1;
            say "REGRESSION %s [%s]: row missing from NEW" section key
          end)
    old_rows;
  let old_keys = List.map (fun r -> row_key (fields r)) old_rows in
  List.iter
    (fun (key, _) ->
      if not (List.mem key old_keys) then begin
        t.notes <- t.notes + 1;
        say "note       %s [%s]: new row (not in baseline)" section key
      end)
    new_keyed

(* ------------------------------------------------------------------ run *)

let scalar obj k =
  match obj with
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> fstr v | None -> "?")
  | _ -> "?"

let run ~old_path ~new_path ~tol ~strict =
  match
    let old_j = load old_path and new_j = load new_path in
    Format.printf "benchmark diff: %s -> %s@." old_path new_path;
    Format.printf "  OLD: schema %s, mode %s, rev %s (%s)@." (scalar old_j "schema")
      (scalar old_j "mode") (scalar old_j "git_rev") (scalar old_j "utc_date");
    Format.printf "  NEW: schema %s, mode %s, rev %s (%s)@." (scalar new_j "schema")
      (scalar new_j "mode") (scalar new_j "git_rev") (scalar new_j "utc_date");
    Format.printf "  tolerance %.0f%%, timing %s@." tol
      (if strict then "strict" else "advisory");
    let t =
      { compared = 0; regressions = 0; advisories = 0; notes = 0; improved = [] }
    in
    let subset = scalar old_j "mode" <> scalar new_j "mode" in
    if subset then
      Format.printf
        "  modes differ: NEW is a declared subset — rows it does not \
         measure are notes@.";
    if scalar old_j "schema" <> scalar new_j "schema" then begin
      t.notes <- t.notes + 1;
      Format.printf "    note       schema changed: %s -> %s@."
        (scalar old_j "schema") (scalar new_j "schema")
    end;
    (match old_j, new_j with
    | Obj old_fields, Obj new_fields ->
        List.iter
          (fun (section, old_v) ->
            match old_v, List.assoc_opt section new_fields with
            | Arr old_rows, Some (Arr new_rows) ->
                compare_tables t ~strict ~tol ~subset ~section old_rows
                  new_rows
            | Arr old_rows, (Some _ | None) ->
                t.regressions <- t.regressions + 1;
                Format.printf
                  "    REGRESSION section %S (%d rows) missing from NEW@."
                  section (List.length old_rows)
            | _ -> () (* top-level scalars: informational, printed above *))
          old_fields;
        List.iter
          (fun (section, v) ->
            match v, List.assoc_opt section old_fields with
            | Arr _, None ->
                t.notes <- t.notes + 1;
                Format.printf "    note       new section %S (not in baseline)@."
                  section
            | _ -> ())
          new_fields
    | _ -> raise (Bad "top level is not an object"));
    let improvements = List.length t.improved in
    if improvements > 0 then begin
      Format.printf "  improvements (better by more than %.0f%%):@." tol;
      List.iter (Format.printf "    improved   %s@.") (List.rev t.improved)
    end;
    Format.printf
      "  %d metrics compared: %d regression%s, %d advisor%s, %d improvement%s, \
       %d note%s@."
      t.compared t.regressions
      (if t.regressions = 1 then "" else "s")
      t.advisories
      (if t.advisories = 1 then "y" else "ies")
      improvements
      (if improvements = 1 then "" else "s")
      t.notes
      (if t.notes = 1 then "" else "s");
    if t.regressions > 0 then begin
      Format.printf "  verdict: REGRESSION@.";
      1
    end
    else begin
      Format.printf "  verdict: ok@.";
      0
    end
  with
  | code -> code
  | exception Bad msg ->
      Format.eprintf "compare: %s@." msg;
      2
