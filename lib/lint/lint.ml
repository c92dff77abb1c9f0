(* The linter proper: parse with the installed compiler's frontend, walk
   the Parsetree once per file with an Ast_iterator, and let each rule
   pattern-match on the nodes it cares about.  All mutable state lives in
   a per-file [ctx] record allocated in [check_string] — the linter obeys
   its own global-state rule. *)

type zone = Lib | Bin | Bench | Test | Other

(* Leading ./ and ../ segments do not change which repo file a path
   names, but they would defeat the zone and allowlist lookups (scans may
   run from a subdirectory, e.g. the test runner). *)
let rec normalize p =
  if String.starts_with ~prefix:"./" p then
    normalize (String.sub p 2 (String.length p - 2))
  else if String.starts_with ~prefix:"../" p then
    normalize (String.sub p 3 (String.length p - 3))
  else p

let zone_of_path p =
  match String.split_on_char '/' (normalize p) with
  | "lib" :: _ -> Lib
  | "bin" :: _ -> Bin
  | "bench" :: _ -> Bench
  | "test" :: _ -> Test
  | _ -> Other

type rule = { id : string; synopsis : string; rationale : string }

let rule_global_state = "global-state"
let rule_sim_globals = "sim-globals"
let rule_nondet = "nondet"
let rule_congest = "congest-discipline"
let rule_catch_all = "catch-all"
let rule_unsafe = "unsafe-array"
let rule_central_oracle = "central-oracle"

let rules =
  [
    {
      id = rule_global_state;
      synopsis = "toplevel mutable state in a library module";
      rationale =
        "the domain-safety contract (HACKING.md): no per-run mutable state \
         in the library, or concurrent pool tasks race on it";
    };
    {
      id = rule_sim_globals;
      synopsis = "use of the process-wide Sim.use_reference_engine shim";
      rationale =
        "use_reference_engine mutates process-wide state and reroutes \
         every run; only the single-domain differential suites may flip \
         it";
    };
    {
      id = rule_nondet;
      synopsis = "nondeterminism source (global Random, wall clock, Domain.self)";
      rationale =
        "results must replay bit-identically from explicit seeds (fault \
         plans, jobs-invariance, qcheck repros); wall-clock reads belong \
         in bench/ only";
    };
    {
      id = rule_congest;
      synopsis = "message traffic bypassing the accounted Sim send path";
      rationale =
        "per-edge bit counts are the measured quantity of every \
         round/congestion experiment; stepping a protocol or touching \
         inbox/outbox structures outside sim.ml smuggles unaccounted bits";
    };
    {
      id = rule_catch_all;
      synopsis = "catch-all exception handler";
      rationale =
        "a bare `with _ ->' can swallow Pool.Nested_use or \
         Sim.Round_limit and turn a protocol bug into silent data \
         corruption";
    };
    {
      id = rule_unsafe;
      synopsis = "bounds-unchecked array/bytes access (unsafe_get/unsafe_set)";
      rationale =
        "an out-of-range unsafe access is silent memory corruption, not \
         an exception; every use must sit behind an explicit bounds check \
         and carry an inline [@lint.allow \"unsafe-array\"] pointing at it";
    };
    {
      id = rule_central_oracle;
      synopsis =
        "centralized shortest-path oracle (Paths.parameters, diameter_*, \
         dijkstra, ...) in simulated-algorithm code";
      rationale =
        "a CONGEST node cannot learn the exact D, WD or s, nor a \
         shortest-path tree, for free: the algorithms must read such \
         quantities only as their simulated runs computed them \
         (Params.estimate, footnote 2), or the measured rounds omit the \
         cost of knowing them";
    };
  ]

(* Files allowed to touch the engine shim: the defining module and the
   differential suite whose whole point is driving entry points through
   the reference engine.  Everything else must carry an inline
   [@lint.allow "sim-globals"]. *)
let sim_globals_allowlist = [ "lib/congest/sim.ml"; "test/test_sim_equiv.ml" ]

(* The library files that may read the wall clock: telemetry's [now_ns]
   is the sanctioned (and injectable) clock every other module profiles
   through, and the flight recorder stamps its capture timestamp (a
   metadata field, never an event — injectable via [?now]) at creation.
   Keeping the reads centralized is what makes traces and flightlogs
   deterministic under injected time. *)
let wall_clock_allowlist = [ "lib/congest/telemetry.ml"; "lib/congest/recorder.ml" ]

(* The one library file that may use bounds-unchecked accessors without an
   inline allow: [Dsf_util.Pack] is the repo's sanctioned bit-twiddling
   site — every packed-word layout, range check, and shift lives there, so
   protocol code manipulates fields through its width-checked API instead
   of hand-rolled masks. *)
let pack_allowlist = [ "lib/util/pack.ml" ]

(* central-oracle's scope: the simulator, the embeddings, the algorithms
   and the baselines, and the CLI's solve path. *)
let central_oracle_dirs =
  [ "lib/congest/"; "lib/embed/"; "lib/core/"; "lib/baseline/" ]

let central_oracle_files = [ "bin/dsf_cli.ml" ]

(* The centralized shortest-path queries of [Dsf_graph.Paths].  Its pure
   helpers ([path_edges]) are not oracles. *)
let central_oracles =
  [
    "parameters"; "diameter_unweighted"; "diameter_weighted";
    "shortest_path_diameter"; "eccentricity_unweighted"; "all_pairs";
    "dijkstra"; "dijkstra_hops"; "shortest_path"; "bfs"; "bfs_multi";
  ]

(* Files in scope that are centralized by design: the shared setup of the
   centralized references Algorithms 1 and 2 ([Moat], [Moat_rounded]),
   and the centralized KMB Steiner-tree baseline.  The other sanctioned
   sites carry an inline [@lint.allow "central-oracle"] with a reason:
   [Reduced_solver]'s charged central solve, [Le_list.verify_against]
   (a test oracle), the bit width of [Steiner_tree_distributed]'s
   messages, and dsf_cli's [params] command and [solve --record]'s log
   metadata. *)
let central_oracle_allowlist =
  [ "lib/core/moat_common.ml"; "lib/baseline/steiner_tree.ml" ]

let in_central_oracle_scope file =
  (List.exists (fun d -> String.starts_with ~prefix:d file) central_oracle_dirs
  || List.mem file central_oracle_files)
  && not (List.mem file central_oracle_allowlist)

(* The one file that may construct and mutate inbox/outbox structures and
   invoke protocol [step] fields: the simulator itself. *)
let congest_exempt = [ "lib/congest/sim.ml" ]

(* The protocol hooks only the engine may call: a flat protocol's state
   constructor and step, and the [step] of any list-style protocol
   record. *)
let protocol_hooks = [ "fp_init"; "fp_step"; "step" ]

type ctx = {
  file : string;
  zone : zone;
  mutable active : string list;  (* suppression scopes, innermost first *)
  mutable in_value : bool;  (* inside an expression (not module toplevel) *)
  mutable mutable_labels : string list;
      (* record labels declared [mutable] in this file *)
  mutable findings : Finding.t list;
}

let emit ctx ~(loc : Location.t) ~rule ~message ~hint =
  if not (List.mem "*" ctx.active || List.mem rule ctx.active) then begin
    let p = loc.Location.loc_start in
    ctx.findings <-
      {
        Finding.file = ctx.file;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        rule;
        message;
        hint;
      }
      :: ctx.findings
  end

(* ------------------------------------------------------------ helpers *)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

let path_str lid = String.concat "." (flatten_lid lid)

let last_comp lid =
  match List.rev (flatten_lid lid) with [] -> "" | s :: _ -> s

let allow_ids (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "lint.allow" then []
      else
        match a.attr_payload with
        | Parsetree.PStr [] -> [ "*" ]
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
            String.split_on_char ' ' s |> List.filter (fun x -> x <> "")
        | _ -> [ "*" ] (* malformed payload: fail open, suppress all *))
    attrs

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------- rule bodies *)

(* Syntactic creators of mutable state.  [Array.init]/[Hashtbl.of_seq]
   etc. are deliberately absent: toplevel tables built once and only read
   are a (risky but common) idiom; the listed constructors have no
   read-only use. *)
let mutable_creators =
  [
    "ref"; "Stdlib.ref"; "Hashtbl.create"; "Buffer.create"; "Atomic.make";
    "Queue.create"; "Stack.create"; "Array.make"; "Array.create_float";
    "Bytes.create"; "Bytes.make"; "Weak.create"; "Mutex.create";
    "Condition.create"; "Semaphore.Counting.make"; "Semaphore.Binary.make";
    "Dynarray.create";
  ]

let rec peel (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_lazy e
  | Pexp_open (_, e) ->
      peel e
  | _ -> e

let binding_name (p : Parsetree.pattern) =
  let rec go (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go p

let check_toplevel_binding ctx (vb : Parsetree.value_binding) =
  if ctx.zone = Lib then
    match binding_name vb.pvb_pat with
    | None -> ()
    | Some name -> (
        match (peel vb.pvb_expr).pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
          when List.mem (path_str txt) mutable_creators ->
            emit ctx ~loc:vb.pvb_loc ~rule:rule_global_state
              ~message:
                (Printf.sprintf
                   "toplevel mutable binding `%s' (created by %s) in a \
                    library module"
                   name (path_str txt))
              ~hint:
                "allocate per run (inside the function that uses it), or \
                 justify process-global state with [@@lint.allow \
                 \"global-state\"] and a comment"
        | Pexp_array _ ->
            emit ctx ~loc:vb.pvb_loc ~rule:rule_global_state
              ~message:
                (Printf.sprintf
                   "toplevel mutable array literal `%s' in a library module"
                   name)
              ~hint:
                "allocate per run, or justify with [@@lint.allow \
                 \"global-state\"] and a comment"
        | Pexp_record (fields, _)
          when List.exists
                 (fun ((lid : _ Location.loc), _) ->
                   List.mem (last_comp lid.txt) ctx.mutable_labels)
                 fields ->
            emit ctx ~loc:vb.pvb_loc ~rule:rule_global_state
              ~message:
                (Printf.sprintf
                   "toplevel record `%s' with mutable field(s) in a \
                    library module"
                   name)
              ~hint:
                "allocate per run, or justify with [@@lint.allow \
                 \"global-state\"] and a comment"
        | _ -> ())

(* Modules whose [unsafe_*] accessors skip bounds checks.  [Obj.magic]-level
   tricks are out of scope; these are the ones that turn an off-by-one into
   silent memory corruption. *)
let unsafe_modules = [ "Array"; "Bytes"; "String"; "Float" ]

let check_ident ctx ~loc lid =
  let p = path_str lid in
  let comps = flatten_lid lid in
  (* sim-globals: any qualified reference to the engine shim. *)
  if
    last_comp lid = "use_reference_engine"
    && List.mem "Sim" comps
    && not (List.mem ctx.file sim_globals_allowlist)
  then
    emit ctx ~loc ~rule:rule_sim_globals
      ~message:(Printf.sprintf "use of global Sim shim `%s'" p)
      ~hint:
        "leave the engine alone outside the differential suites; a \
         single-domain harness may suppress with [@lint.allow \
         \"sim-globals\"]";
  (* unsafe-array: every bounds-unchecked access needs an inline allow. *)
  if
    String.starts_with ~prefix:"unsafe_" (last_comp lid)
    && List.exists (fun m -> List.mem m comps) unsafe_modules
    && not (List.mem ctx.file pack_allowlist)
  then
    emit ctx ~loc ~rule:rule_unsafe
      ~message:(Printf.sprintf "bounds-unchecked access `%s'" p)
      ~hint:
        "use the checked accessor, or keep the access behind an explicit \
         bounds check and mark the proven site with [@lint.allow \
         \"unsafe-array\"] — or route the bit manipulation through \
         Dsf_util.Pack, the sanctioned packing site";
  (* central-oracle: [Paths.<oracle>] under any module path. *)
  (match List.rev comps with
  | f :: "Paths" :: _
    when List.mem f central_oracles && in_central_oracle_scope ctx.file ->
      emit ctx ~loc ~rule:rule_central_oracle
        ~message:
          (Printf.sprintf
             "centralized shortest-path oracle `%s' in simulated-algorithm \
              code"
             p)
        ~hint:
          "read n, D, WD and s from the simulated Dsf_congest.Params.estimate \
           (or another simulated run); a deliberately central site (a \
           reference, a test oracle, a charged stand-in) carries \
           [@lint.allow \"central-oracle\"] and a one-line reason"
  | _ -> ());
  (* nondet: seeding/IO-free determinism contract. *)
  (match p with
  | "Random.self_init" | "Random.init" | "Random.full_init" ->
      emit ctx ~loc ~rule:rule_nondet
        ~message:(Printf.sprintf "`%s' makes every run unrepeatable" p)
        ~hint:
          "derive randomness from an explicit seed via Dsf_util.Rng \
           (splittable, replayable)"
  | _ when
      String.starts_with ~prefix:"Random." p
      && (not (String.starts_with ~prefix:"Random.State." p))
      && ctx.zone = Lib ->
      emit ctx ~loc ~rule:rule_nondet
        ~message:
          (Printf.sprintf
             "global `%s' draws from shared process-wide RNG state" p)
        ~hint:
          "thread a Dsf_util.Rng.t (or Random.State.t) so results replay \
           from a seed and parallel trials stay independent"
  | "Unix.gettimeofday" | "Unix.time" | "Sys.time"
    when (ctx.zone = Lib || ctx.zone = Bin)
         && not (List.mem ctx.file wall_clock_allowlist) ->
      emit ctx ~loc ~rule:rule_nondet
        ~message:(Printf.sprintf "wall-clock read `%s' outside bench/" p)
        ~hint:
          "measured quantities (rounds, bits) must not depend on time; \
           profile through Dsf_congest.Telemetry (its now_ns is the one \
           sanctioned, injectable clock) or keep timing in bench/"
  | "Domain.self" when ctx.zone = Lib ->
      emit ctx ~loc ~rule:rule_nondet
        ~message:"`Domain.self' used in library code"
        ~hint:
          "results must not depend on which pool domain ran the task; \
           key per-trial data by trial index instead"
  | _ -> ())

let rec pattern_catches_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_catches_all p
  | Ppat_or (a, b) -> pattern_catches_all a || pattern_catches_all b
  | _ -> false

(* [with e -> ...] also catches everything, but binding the exception is
   the sanctioned idiom *when the handler re-raises what it does not
   handle* — so a variable pattern is only a finding if the body never
   re-raises. *)
let rec pattern_binds_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_binds_all p
  | _ -> false

(* Suppressions written on the handler pattern itself
   ([with _ [@lint.allow "catch-all"] -> ...]) — the natural spot for
   this rule, since the pattern is what the finding points at. *)
let rec pattern_allows (p : Parsetree.pattern) =
  allow_ids p.ppat_attributes
  @
  match p.ppat_desc with
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_exception q ->
      pattern_allows q
  | Ppat_or (a, b) -> pattern_allows a @ pattern_allows b
  | _ -> []

let pattern_allowed rule p =
  let ids = pattern_allows p in
  List.mem "*" ids || List.mem rule ids

let reraise_idents =
  [
    "raise"; "raise_notrace"; "Stdlib.raise"; "Stdlib.raise_notrace";
    "Printexc.raise_with_backtrace";
  ]

let body_reraises (e : Parsetree.expression) =
  let found = ref false in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } when List.mem (path_str txt) reraise_idents
            ->
              found := true
          | _ -> ());
          default.expr it ex);
    }
  in
  it.Ast_iterator.expr it e;
  !found

let catch_all_msg =
  "catch-all exception handler can swallow Pool.Nested_use and \
   Sim.Round_limit"

let catch_all_hint =
  "match the specific exceptions you expect, or bind and re-raise \
   unknown ones; justify intentional firewalls with [@lint.allow \
   \"catch-all\"]"

let check_expr ctx (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } -> check_ident ctx ~loc txt
  | Pexp_try (_, cases) ->
      List.iter
        (fun (c : Parsetree.case) ->
          if pattern_allowed rule_catch_all c.pc_lhs then ()
          else if pattern_catches_all c.pc_lhs then
            emit ctx ~loc:c.pc_lhs.ppat_loc ~rule:rule_catch_all
              ~message:catch_all_msg ~hint:catch_all_hint
          else if pattern_binds_all c.pc_lhs && not (body_reraises c.pc_rhs)
          then
            emit ctx ~loc:c.pc_lhs.ppat_loc ~rule:rule_catch_all
              ~message:
                "handler binds every exception and never re-raises"
              ~hint:catch_all_hint)
        cases
  | Pexp_match (_, cases) ->
      List.iter
        (fun (c : Parsetree.case) ->
          match c.pc_lhs.ppat_desc with
          | _ when pattern_allowed rule_catch_all c.pc_lhs -> ()
          | Ppat_exception p when pattern_catches_all p ->
              emit ctx ~loc:p.ppat_loc ~rule:rule_catch_all
                ~message:catch_all_msg ~hint:catch_all_hint
          | Ppat_exception p
            when pattern_binds_all p && not (body_reraises c.pc_rhs) ->
              emit ctx ~loc:p.ppat_loc ~rule:rule_catch_all
                ~message:
                  "handler binds every exception and never re-raises"
                ~hint:catch_all_hint
          | _ -> ())
        cases
  | Pexp_setfield (_, { txt; loc }, _)
    when (let f = String.lowercase_ascii (last_comp txt) in
          contains_sub ~sub:"inbox" f || contains_sub ~sub:"outbox" f)
         && not (List.mem ctx.file congest_exempt) ->
      emit ctx ~loc ~rule:rule_congest
        ~message:
          (Printf.sprintf
             "direct mutation of message-buffer field `%s' outside the \
              simulator"
             (last_comp txt))
        ~hint:
          "all traffic must flow through the engine's accounted send path \
           so per-edge bit counts stay honest"
  | Pexp_apply ({ pexp_desc = Pexp_field (_, { txt; loc }); _ }, _)
    when List.mem (last_comp txt) protocol_hooks
         && not (List.mem ctx.file congest_exempt) ->
      emit ctx ~loc ~rule:rule_congest
        ~message:
          (Printf.sprintf
             "direct invocation of a protocol's `%s' field bypasses the \
              simulator's accounting"
             (last_comp txt))
        ~hint:
          "run protocols through Sim.run_flat or Fault.sim_run; \
           combinators that wrap an inner protocol inside their own \
           accounted one may use [@lint.allow \"congest-discipline\"]"
  | _ -> ()

(* --------------------------------------------------------- traversal *)

let make_iterator ctx =
  let default = Ast_iterator.default_iterator in
  let with_allows allows f =
    if allows = [] then f ()
    else begin
      let saved = ctx.active in
      ctx.active <- allows @ ctx.active;
      f ();
      ctx.active <- saved
    end
  in
  let expr it (e : Parsetree.expression) =
    with_allows (allow_ids e.pexp_attributes) @@ fun () ->
    let was = ctx.in_value in
    ctx.in_value <- true;
    check_expr ctx e;
    default.expr it e;
    ctx.in_value <- was
  in
  let value_binding it (vb : Parsetree.value_binding) =
    with_allows (allow_ids vb.pvb_attributes) @@ fun () ->
    if not ctx.in_value then check_toplevel_binding ctx vb;
    default.value_binding it vb
  in
  let type_declaration it (td : Parsetree.type_declaration) =
    (match td.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun (ld : Parsetree.label_declaration) ->
            if ld.pld_mutable = Mutable then
              ctx.mutable_labels <- ld.pld_name.txt :: ctx.mutable_labels)
          labels
    | _ -> ());
    default.type_declaration it td
  in
  (* Handle items manually so a floating [@@@lint.allow] scopes over the
     remainder of its enclosing structure (module), not just one item. *)
  let structure it (items : Parsetree.structure) =
    let saved = ctx.active in
    List.iter
      (fun (si : Parsetree.structure_item) ->
        match si.pstr_desc with
        | Pstr_attribute a -> ctx.active <- allow_ids [ a ] @ ctx.active
        | Pstr_eval (e, attrs) ->
            with_allows (allow_ids attrs) @@ fun () -> it.Ast_iterator.expr it e
        | _ -> default.structure_item it si)
      items;
    ctx.active <- saved
  in
  { default with expr; value_binding; type_declaration; structure }

let check_string ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | str ->
      let ctx =
        {
          file = normalize file;
          zone = zone_of_path file;
          active = [];
          in_value = false;
          mutable_labels = [];
          findings = [];
        }
      in
      let it = make_iterator ctx in
      it.Ast_iterator.structure it str;
      Ok (List.sort Finding.compare ctx.findings)
  (* Intentional firewall: every parse failure becomes an [Error] the
     driver reports per file; nothing here is worth killing a scan for. *)
  | exception (exn [@lint.allow "catch-all"]) -> (
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
          Error (Format.asprintf "%a" Location.print_report report)
      | _ -> Error (file ^ ": " ^ Printexc.to_string exn))

let check_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> check_string ~file:path src
  | exception Sys_error msg -> Error msg

(* ----------------------------------------------------------- walking *)

let skip_dir name =
  name = "" || name.[0] = '.' || name.[0] = '_' (* _build and friends *)

let rec walk acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if skip_dir entry then acc else walk acc (Filename.concat path entry))
      acc
      (let es = Sys.readdir path in
       Array.sort compare es;
       es)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let scan ~roots =
  let files = List.rev (List.fold_left walk [] roots) in
  let findings, errors =
    List.fold_left
      (fun (fs, es) file ->
        match check_file file with
        | Ok f -> (f :: fs, es)
        | Error e -> (fs, e :: es))
      ([], []) files
  in
  (List.sort Finding.compare (List.concat findings), List.rev errors)

(* ---------------------------------------------------------- baseline *)

module Baseline = struct
  type entry = { bfile : string; brule : string; bmessage : string }

  let load path =
    if not (Sys.file_exists path) then []
    else
      In_channel.with_open_text path In_channel.input_lines
      |> List.filter_map (fun line ->
             let line = String.trim line in
             if line = "" || line.[0] = '#' then None
             else
               match String.split_on_char '\t' line with
               | [ bfile; brule; bmessage ] -> Some { bfile; brule; bmessage }
               | _ -> None)

  let apply entries findings =
    let indexed = List.mapi (fun i e -> (i, e)) entries in
    let used = Array.make (List.length entries) false in
    let covered (f : Finding.t) =
      List.exists
        (fun (i, e) ->
          let m =
            e.bfile = f.Finding.file && e.brule = f.Finding.rule
            && e.bmessage = f.Finding.message
          in
          if m then used.(i) <- true;
          m)
        indexed
    in
    let kept = List.filter (fun f -> not (covered f)) findings in
    let stale = List.filteri (fun i _ -> not used.(i)) entries in
    (kept, List.length findings - List.length kept, stale)

  let save path findings =
    Out_channel.with_open_text path @@ fun oc ->
    output_string oc
      "# dsf-lint baseline: grandfathered findings, one per line as\n\
       # file<TAB>rule<TAB>message.  Regenerate with:\n\
       #   dune exec bin/lint.exe -- --baseline lint.baseline \
       --update-baseline lib bin bench\n";
    List.iter
      (fun (f : Finding.t) ->
        Printf.fprintf oc "%s\t%s\t%s\n" f.file f.rule f.message)
      findings
end
