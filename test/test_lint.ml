(* dsf-lint: every rule must fire on a minimal bad fixture and stay quiet
   on the corresponding good one, each suppression form must silence
   exactly the named rule, and the baseline must grandfather findings by
   (file, rule, message) while flagging stale entries. *)

open Dsf_lint

let check = Alcotest.check

(* Lint [src] as if it lived at [file]; return the rule ids that fired. *)
let rules_of ~file src =
  match Lint.check_string ~file src with
  | Ok findings -> List.map (fun (f : Finding.t) -> f.Finding.rule) findings
  | Error e -> Alcotest.failf "unexpected parse error for %s: %s" file e

let fires ~file rule src =
  check Alcotest.bool
    (Printf.sprintf "%s fires in %s" rule file)
    true
    (List.mem rule (rules_of ~file src))

let quiet ~file src =
  check Alcotest.(list string)
    (Printf.sprintf "quiet in %s" file)
    [] (rules_of ~file src)

(* ----------------------------------------------------------- global-state *)

let test_global_state () =
  fires ~file:"lib/core/bad.ml" "global-state" "let cache = Hashtbl.create 16";
  fires ~file:"lib/core/bad.ml" "global-state" "let counter = ref 0";
  fires ~file:"lib/core/bad.ml" "global-state" "let buf = Buffer.create 64";
  fires ~file:"lib/core/bad.ml" "global-state" "let flag = Atomic.make false";
  fires ~file:"lib/core/bad.ml" "global-state" "let table = [| 1; 2; 3 |]";
  fires ~file:"lib/core/bad.ml" "global-state"
    "let state : int ref = ref 0";
  (* mutable record fields at toplevel *)
  fires ~file:"lib/core/bad.ml" "global-state"
    "type t = { mutable n : int }\nlet shared = { n = 0 }";
  (* allocation inside a function is per-call, not shared *)
  quiet ~file:"lib/core/good.ml" "let fresh () = ref 0";
  quiet ~file:"lib/core/good.ml"
    "let count xs = let h = Hashtbl.create 8 in List.length xs + Hashtbl.length h";
  (* immutable toplevel data is fine *)
  quiet ~file:"lib/core/good.ml" "let palette = [ \"red\"; \"blue\" ]";
  (* the rule is scoped to lib/: executables and tests may keep state *)
  quiet ~file:"bin/tool.ml" "let verbose = ref false";
  quiet ~file:"test/test_x.ml" "let seen = Hashtbl.create 16";
  quiet ~file:"bench/micro.ml" "let acc = ref 0"

(* ------------------------------------------------------------ sim-globals *)

let test_sim_globals () =
  fires ~file:"lib/core/bad.ml" "sim-globals"
    "let slow () = Dsf_congest.Sim.use_reference_engine := true";
  fires ~file:"bench/bad.ml" "sim-globals"
    "let slow () = Sim.use_reference_engine := true";
  fires ~file:"test/test_x.ml" "sim-globals"
    "let on () = !Sim.use_reference_engine";
  (* the differential suite is the allowlisted consumer of the shim *)
  quiet ~file:"test/test_sim_equiv.ml"
    "let slow () = Sim.use_reference_engine := true";
  quiet ~file:"lib/congest/sim.ml"
    "let on () = !Sim.use_reference_engine";
  (* the same name on another module is unrelated *)
  quiet ~file:"lib/core/good.ml"
    "let slow () = Registry.use_reference_engine := true"

(* ----------------------------------------------------------------- nondet *)

let test_nondet () =
  fires ~file:"lib/core/bad.ml" "nondet" "let () = Random.self_init ()";
  fires ~file:"test/test_x.ml" "nondet" "let () = Random.self_init ()";
  fires ~file:"lib/core/bad.ml" "nondet" "let roll () = Random.int 6";
  fires ~file:"lib/core/bad.ml" "nondet" "let now () = Unix.gettimeofday ()";
  fires ~file:"bin/tool.ml" "nondet" "let now () = Sys.time ()";
  fires ~file:"lib/core/bad.ml" "nondet" "let me () = Domain.self ()";
  (* seeded state threading is the sanctioned way to use randomness *)
  quiet ~file:"lib/core/good.ml"
    "let roll st = Random.State.int st 6";
  (* benches may read the wall clock and use the global RNG *)
  quiet ~file:"bench/micro.ml" "let now () = Unix.gettimeofday ()";
  quiet ~file:"bench/micro.ml" "let roll () = Random.int 6";
  (* telemetry.ml and recorder.ml are the sanctioned lib/ clocks (span
     timing, flightlog header stamp); every other library file must
     profile through them — locked both ways so widening the allowlist
     is a deliberate act *)
  quiet ~file:"lib/congest/telemetry.ml"
    "let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)";
  quiet ~file:"lib/congest/recorder.ml"
    "let now_unix_s () = int_of_float (Unix.gettimeofday ())";
  fires ~file:"lib/congest/trace.ml" "nondet"
    "let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)";
  fires ~file:"lib/congest/sim.ml" "nondet"
    "let now_unix_s () = int_of_float (Unix.gettimeofday ())"

(* ----------------------------------------------- congest-discipline *)

let test_congest_discipline () =
  fires ~file:"lib/core/bad.ml" "congest-discipline"
    "let tick proto view st inbox = proto.Sim.step view st ~inbox";
  fires ~file:"lib/core/bad.ml" "congest-discipline"
    "let clear st = st.inbox <- []";
  fires ~file:"lib/core/bad.ml" "congest-discipline"
    "let push st m = st.outbox <- m :: st.outbox";
  (* the simulator itself is the one place allowed to drive [step] *)
  quiet ~file:"lib/congest/sim.ml"
    "let tick proto view st inbox = proto.Sim.step view st ~inbox";
  (* a flat protocol's hooks are guarded the same way *)
  fires ~file:"lib/core/bad.ml" "congest-discipline"
    "let tick fp view st inbox emit = fp.Sim.fp_step view ~round:0 st ~inbox ~emit";
  fires ~file:"lib/congest/bad.ml" "congest-discipline"
    "let boot fp view = fp.Sim.fp_init view";
  quiet ~file:"lib/congest/sim.ml"
    "let tick fp view st inbox emit = fp.fp_step view ~round:0 st ~inbox ~emit";
  quiet ~file:"lib/congest/sim.ml" "let boot fp view = fp.fp_init view";
  (* a wrapping combinator (Fault.harden) opts out at its binding or at
     the call *)
  quiet ~file:"lib/congest/fault.ml"
    "let[@lint.allow \"congest-discipline\"] wrap fp view = fp.Sim.fp_init view";
  quiet ~file:"lib/core/wrap.ml"
    "let tick fp view st inbox emit =\n\
    \  (fp.Sim.fp_step view ~round:0 st ~inbox ~emit)\n\
    \  [@lint.allow \"congest-discipline\"]";
  (* unrelated fields and functions stay quiet *)
  quiet ~file:"lib/core/good.ml" "let clear st = st.items <- []";
  quiet ~file:"lib/core/good.ml" "let tick m = m.advance ()"

(* -------------------------------------------------------------- catch-all *)

let test_catch_all () =
  fires ~file:"lib/core/bad.ml" "catch-all"
    "let safe f = try f () with _ -> ()";
  fires ~file:"lib/core/bad.ml" "catch-all"
    "let safe f = try f () with e -> ignore e";
  fires ~file:"lib/core/bad.ml" "catch-all"
    "let safe f = match f () with x -> x | exception _ -> 0";
  (* naming the exceptions you mean to swallow is fine *)
  quiet ~file:"lib/core/good.ml"
    "let safe f = try f () with Not_found -> ()";
  quiet ~file:"lib/core/good.ml"
    "let safe f = try f () with Failure _ | Not_found -> ()";
  (* binding in order to re-raise is the sanctioned firewall idiom *)
  quiet ~file:"lib/core/good.ml"
    "let safe f = try f () with e -> cleanup (); raise e";
  quiet ~file:"lib/core/good.ml"
    "let safe f = try f () with e -> \
     Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())";
  (* the crash-recovery contract (Fault.recoverable) is explicitly in
     scope: a catch-all inside a snapshot/restore implementation would
     turn a failing checkpoint into silent state corruption, and the rule
     must fire there like anywhere else in lib/ *)
  fires ~file:"lib/congest/fault.ml" "catch-all"
    "let r = { snapshot = (fun st -> try copy st with _ -> st); \
     state_bits = (fun _ -> 63) }";
  fires ~file:"lib/core/my_proto.ml" "catch-all"
    "let snapshot st = try deep_copy st with _ -> st"

(* ----------------------------------------------------------- unsafe-array *)

let test_unsafe_array () =
  fires ~file:"lib/core/bad.ml" "unsafe-array"
    "let get a i = Array.unsafe_get a i";
  fires ~file:"lib/core/bad.ml" "unsafe-array"
    "let set a i v = Array.unsafe_set a i v";
  fires ~file:"lib/core/bad.ml" "unsafe-array"
    "let byte b i = Bytes.unsafe_get b i";
  fires ~file:"lib/core/bad.ml" "unsafe-array"
    "let ch s i = String.unsafe_get s i";
  (* unsafe access is a hazard in every zone, not just lib/ *)
  fires ~file:"bench/micro.ml" "unsafe-array"
    "let get a i = Array.unsafe_get a i";
  fires ~file:"test/test_x.ml" "unsafe-array"
    "let get a i = Array.unsafe_get a i";
  (* the simulator carries its allows inline, not via a file allowlist *)
  fires ~file:"lib/congest/sim.ml" "unsafe-array"
    "let get a i = Array.unsafe_get a i";
  quiet ~file:"lib/congest/sim.ml"
    "let get a i =\n\
    \  if i < 0 || i >= Array.length a then invalid_arg \"get\";\n\
    \  (Array.unsafe_get a i [@lint.allow \"unsafe-array\"])";
  (* checked accessors and unrelated unsafe_-named functions stay quiet *)
  quiet ~file:"lib/core/good.ml" "let get a i = Array.get a i";
  quiet ~file:"lib/core/good.ml" "let go x = Proto.unsafe_cast x";
  (* Dsf_util.Pack is the sanctioned bit-twiddling site: unchecked
     accessors there need no inline allow ... *)
  quiet ~file:"lib/util/pack.ml" "let get a i = Array.unsafe_get a i";
  (* ... but only there — the same code elsewhere in lib/ still fires *)
  fires ~file:"lib/util/bitsize.ml" "unsafe-array"
    "let get a i = Array.unsafe_get a i";
  fires ~file:"lib/congest/bfs.ml" "unsafe-array"
    "let get a i = Array.unsafe_get a i"

(* ------------------------------------------------------------ suppression *)

let test_suppression () =
  (* expression attribute *)
  quiet ~file:"lib/core/x.ml"
    "let safe f = (try f () with _ -> ()) [@lint.allow \"catch-all\"]";
  (* binding item attribute *)
  quiet ~file:"lib/core/x.ml"
    "let cache = Hashtbl.create 16 [@@lint.allow \"global-state\"]";
  (* floating attribute covers the rest of the module... *)
  quiet ~file:"lib/core/x.ml"
    "[@@@lint.allow \"global-state\"]\nlet a = ref 0\nlet b = ref 1";
  (* ...but not sites before it *)
  fires ~file:"lib/core/x.ml" "global-state"
    "let a = ref 0\n[@@@lint.allow \"global-state\"]\nlet b = ref 1";
  (* a suppression names its rule: others still fire *)
  fires ~file:"lib/core/x.ml" "global-state"
    "let cache = Hashtbl.create 16 [@@lint.allow \"catch-all\"]";
  (* several ids, space-separated *)
  quiet ~file:"lib/core/x.ml"
    "let cache = Hashtbl.create 16 [@@lint.allow \"catch-all global-state\"]";
  (* empty payload allows everything under the node *)
  quiet ~file:"lib/core/x.ml" "let cache = Hashtbl.create 16 [@@lint.allow]";
  (* the catch-all rule also honours an attribute on the handler pattern *)
  quiet ~file:"lib/core/x.ml"
    "let safe f = try f () with _ [@lint.allow \"catch-all\"] -> ()";
  quiet ~file:"lib/core/x.ml"
    "let safe f = match f () with x -> x \
     | exception (e [@lint.allow \"catch-all\"]) -> ignore e; 0"

(* ---------------------------------------------------------------- scoping *)

let test_zones_and_errors () =
  check Alcotest.bool "lib zone" true (Lint.zone_of_path "lib/core/x.ml" = Lint.Lib);
  check Alcotest.bool "bench zone" true (Lint.zone_of_path "bench/x.ml" = Lint.Bench);
  check Alcotest.bool "other zone" true (Lint.zone_of_path "examples/x.ml" = Lint.Other);
  (match Lint.check_string ~file:"lib/core/broken.ml" "let = 3 in" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error expected");
  check Alcotest.int "rule catalogue" 7 (List.length Lint.rules);
  check Alcotest.int "typed rule catalogue" 4 (List.length Typed_lint.rules)

(* --------------------------------------------------------------- baseline *)

let test_baseline () =
  let f1 : Finding.t =
    { file = "lib/core/a.ml"; line = 3; col = 0; rule = "global-state";
      message = "toplevel mutable"; hint = "" }
  and f2 : Finding.t =
    { file = "lib/core/b.ml"; line = 9; col = 2; rule = "catch-all";
      message = "catch-all handler"; hint = "" }
  in
  let path = Filename.temp_file "dsf_lint_test" ".baseline" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Lint.Baseline.save path [ f1; f2 ];
  let entries = Lint.Baseline.load path in
  check Alcotest.int "roundtrip size" 2 (List.length entries);
  (* both covered: nothing kept, none stale *)
  let kept, n, stale = Lint.Baseline.apply entries [ f1; f2 ] in
  check Alcotest.int "kept" 0 (List.length kept);
  check Alcotest.int "suppressed" 2 n;
  check Alcotest.int "stale" 0 (List.length stale);
  (* matching ignores the line number: an edit above the site moves it *)
  let moved = { f1 with line = 40; col = 7 } in
  let kept, n, _ = Lint.Baseline.apply entries [ moved ] in
  check Alcotest.int "line-insensitive kept" 0 (List.length kept);
  check Alcotest.int "line-insensitive suppressed" 1 n;
  (* a fixed finding leaves its entry stale; a new one is kept *)
  let f3 = { f1 with file = "lib/core/c.ml" } in
  let kept, _, stale = Lint.Baseline.apply entries [ f1; f3 ] in
  check Alcotest.int "new finding kept" 1 (List.length kept);
  check Alcotest.int "fixed entry stale" 1 (List.length stale);
  check Alcotest.string "stale is f2" "lib/core/b.ml"
    (List.hd stale).Lint.Baseline.bfile;
  (* missing baseline file = empty *)
  check Alcotest.int "missing file" 0
    (List.length (Lint.Baseline.load "/nonexistent/dsf.baseline"))

(* The shipped tree must be lint-clean: the same invariant `dune build
   @lint` enforces in CI, checked here from the repo root when visible.
   (Alcotest may run from _build sandboxes without the sources; skip
   silently then.) *)
let test_repo_clean () =
  let root = ".." in
  if Sys.file_exists (Filename.concat root "lib") then begin
    let roots =
      List.filter
        (fun d -> Sys.file_exists (Filename.concat root d))
        [ "lib"; "bin"; "bench" ]
      |> List.map (Filename.concat root)
    in
    let findings, errors = Lint.scan ~roots in
    check Alcotest.(list string) "no scan errors" [] errors;
    List.iter (fun f -> Format.eprintf "%a@." Finding.pp f) findings;
    check Alcotest.int "repo findings" 0 (List.length findings)
  end

(* ------------------------------------------------------------ typed rules *)

(* The typed pass runs over .cmt artifacts, which live next to this test
   binary inside the build context (dune's dev profile emits -bin-annot).
   Linking dsf_lint_fixtures into test_main guarantees the fixture cmts
   exist whenever the tests run; outside the build tree the scans skip
   silently, like test_repo_clean. *)

let test_typed_fixtures () =
  let root = Filename.concat "fixtures" ".dsf_lint_fixtures.objs" in
  if Sys.file_exists root then begin
    let findings, errors = Typed_lint.scan ~roots:[ root ] in
    check Alcotest.(list string) "no scan errors" [] errors;
    let by rule =
      List.filter (fun (f : Finding.t) -> f.Finding.rule = rule) findings
    in
    let races = by "domain-race" and widths = by "congest-width" in
    let envs = by "env-dropped" in
    (* racy_flat.ml seeds two distinct races: a toplevel ref and a write
       to another node's slot of the captured storage *)
    check Alcotest.bool "seeded non-local writes flagged" true
      (List.length races >= 2);
    check Alcotest.bool "race findings name racy_flat.ml" true
      (List.for_all
         (fun (f : Finding.t) -> Filename.basename f.Finding.file = "racy_flat.ml")
         races);
    (* wide_pack.ml seeds an 80-bit layout, an unverifiable width, and a
       200-bit fp_msg_bits *)
    check Alcotest.bool "over-wide fixtures flagged" true
      (List.length widths >= 3);
    check Alcotest.bool "width findings name wide_pack.ml" true
      (List.for_all
         (fun (f : Finding.t) -> Filename.basename f.Finding.file = "wide_pack.ml")
         widths);
    (* dropped_env.ml seeds exactly two dropped environments (an optional
       and a labelled env parameter); its threaded, env-free, explicit
       [?env:None] and suppressed calls must stay quiet *)
    check
      Alcotest.(list (pair string int))
      "env-dropped findings"
      [ "dropped_env.ml", 15; "dropped_env.ml", 19 ]
      (List.map
         (fun (f : Finding.t) ->
           Filename.basename f.Finding.file, f.Finding.line)
         envs);
    check Alcotest.int "no other rules fire" 0
      (List.length findings - List.length races - List.length widths
     - List.length envs);
    (* the scan output is already in Finding.compare order (stable CI) *)
    check Alcotest.bool "findings sorted" true
      (List.sort Finding.compare findings = findings)
  end

(* poly-compare is scoped to the simulator libraries, so the fixture is
   analyzed as a lib/congest unit; under its own path (or any other
   library's) the rule stays silent. *)
let test_typed_poly_compare () =
  let cmt =
    List.fold_left Filename.concat "fixtures"
      [ ".dsf_lint_fixtures.objs"; "byte"; "dsf_lint_fixtures__Poly_compare.cmt" ]
  in
  if Sys.file_exists cmt then begin
    let found file =
      match Typed_lint.check_cmt ~file cmt with
      | Ok fs ->
          List.map
            (fun (f : Finding.t) ->
              Filename.basename f.Finding.file, f.Finding.rule, f.Finding.line)
            fs
      | Error e -> Alcotest.fail e
    in
    let site line = "poly_compare.ml", "poly-compare", line in
    check
      Alcotest.(list (triple string string int))
      "sort helper, tuple compare, first-class compare at a record, max at \
       int"
      [ site 14; site 22; site 27; site 55 ]
      (found "lib/congest/poly_compare.ml");
    List.iter
      (fun file ->
        check
          Alcotest.(list (triple string string int))
          ("out of scope: " ^ file) [] (found file))
      [ "test/fixtures/poly_compare.ml"; "lib/graph/poly_compare.ml" ]
  end

(* central-oracle is scoped to the simulator libraries, the baselines and
   dsf_cli, so the fixture is linted as a lib/core unit: exactly its one
   unallowed oracle call fires.  Under its own path the rule is silent. *)
let test_central_oracle () =
  let src =
    In_channel.with_open_text "fixtures/central_oracle.ml" In_channel.input_all
  in
  let found file =
    match Lint.check_string ~file src with
    | Ok fs ->
        List.map (fun (f : Finding.t) -> f.Finding.rule, f.Finding.line) fs
    | Error e -> Alcotest.fail e
  in
  check
    Alcotest.(list (pair string int))
    "the flagged site, not the allowed one"
    [ "central-oracle", 9 ]
    (found "lib/core/central_oracle.ml");
  check
    Alcotest.(list (pair string int))
    "out of scope" []
    (found "test/fixtures/central_oracle.ml");
  (* The scope: the solve path of dsf_cli, the baselines, the embeddings
     and the simulator, under any module alias ending in [Paths]. *)
  fires ~file:"bin/dsf_cli.ml" "central-oracle"
    "let d g = Dsf_graph.Paths.diameter_unweighted g";
  fires ~file:"lib/baseline/x.ml" "central-oracle"
    "let s g = Paths.shortest_path_diameter g";
  fires ~file:"lib/embed/x.ml" "central-oracle"
    "let d g = Paths.dijkstra g ~src:0";
  fires ~file:"lib/congest/x.ml" "central-oracle"
    "let p g = Paths.parameters g";
  (* The centralized references' shared setup is allowlisted; pure path
     helpers, other modules' [parameters] and other directories are not
     oracles in scope. *)
  quiet ~file:"lib/core/moat_common.ml" "let d g = Paths.dijkstra g ~src:0";
  quiet ~file:"lib/core/x.ml" "let e g ns = Paths.path_edges g ns";
  quiet ~file:"lib/core/x.ml" "let p g = Model.parameters g";
  quiet ~file:"bench/tables.ml" "let p g = Paths.parameters g";
  quiet ~file:"bin/lint.ml" "let p g = Paths.parameters g"

let test_typed_repo_clean () =
  let root = Filename.concat ".." "lib" in
  if Sys.file_exists root then begin
    let findings, errors = Typed_lint.scan ~roots:[ root ] in
    check Alcotest.(list string) "no scan errors" [] errors;
    List.iter (fun f -> Format.eprintf "%a@." Finding.pp f) findings;
    check Alcotest.int "typed findings on shipped libraries" 0
      (List.length findings)
  end

let suites =
  [
    ( "lint",
      [
        Alcotest.test_case "global-state" `Quick test_global_state;
        Alcotest.test_case "sim-globals" `Quick test_sim_globals;
        Alcotest.test_case "nondet" `Quick test_nondet;
        Alcotest.test_case "congest-discipline" `Quick test_congest_discipline;
        Alcotest.test_case "catch-all" `Quick test_catch_all;
        Alcotest.test_case "unsafe-array" `Quick test_unsafe_array;
        Alcotest.test_case "suppression" `Quick test_suppression;
        Alcotest.test_case "zones and parse errors" `Quick test_zones_and_errors;
        Alcotest.test_case "baseline" `Quick test_baseline;
        Alcotest.test_case "central-oracle" `Quick test_central_oracle;
        Alcotest.test_case "repo is lint-clean" `Quick test_repo_clean;
        Alcotest.test_case "typed rules flag the fixtures" `Quick
          test_typed_fixtures;
        Alcotest.test_case "typed rules clean on shipped libs" `Quick
          test_typed_repo_clean;
        Alcotest.test_case "poly-compare flags generic comparisons" `Quick
          test_typed_poly_compare;
      ] );
  ]
