(* The typed analysis layer: where lint.ml walks the untyped Parsetree,
   this module walks compiler-produced [.cmt] files (Typedtree), so rules
   can see resolved paths, types, and binder identity — enough for a
   per-compilation-unit escape/ownership analysis over the flat engine's
   protocol records and a static CONGEST message-width check.

   Scope and honesty notes (see HACKING.md "Static analysis"):
   - Idents are resolved, so shadowing and aliasing of *local* names is
     exact (every binder carries a unique stamp).
   - The interprocedural part is per compilation unit: a helper function
     defined in the same [.ml] that mutates its free variables taints any
     [fp_step] that references it.  Cross-module calls appear as [Pdot]
     paths and are assumed pure — the repo's library API surfaces are
     value-in/value-out, and each unit is scanned on its own.
   - Mutation detection covers the stdlib's in-place primitives (arrays,
     bytes, refs, Hashtbl/Queue/Stack/Buffer/Atomic).  A user-defined
     mutator applied to a captured value is only caught one level deep
     (when its body is in the same unit). *)

type rule = Lint.rule = { id : string; synopsis : string; rationale : string }

let rule_domain_race = "domain-race"
let rule_congest_width = "congest-width"
let rule_env_dropped = "env-dropped"
let rule_poly_compare = "poly-compare"

let rules =
  [
    {
      id = rule_domain_race;
      synopsis =
        "flat-protocol step mutating state it does not own (escape analysis)";
      rationale =
        "CONGEST is node-local: in a round a node knows only its own state \
         and its mail, so a step body may mutate only state reached from \
         its own arguments (or a captured per-node slot indexed by the \
         step's own node id) — anything else lets one node write another's \
         state behind the simulated network";
    };
    {
      id = rule_congest_width;
      synopsis = "message encoding wider than the 62-bit CONGEST word";
      rationale =
        "the model admits O(log n)-bit messages; every Pack layout must \
         provably fit 62 bits and declared per-message bit counts must be \
         O(log n)-representable, or the round/bits experiments measure a \
         protocol the paper's model forbids";
    };
    {
      id = rule_env_dropped;
      synopsis = "simulating call that drops the Sim.env in scope";
      rationale =
        "every simulated run inherits its caller's run environment — \
         telemetry (and the flight recorder riding on it), \
         network; a call that omits ?env while an env is in scope \
         silently runs lossless and uninstrumented, so traces, flight logs \
         and chaos runs miss it";
    };
    {
      id = rule_poly_compare;
      synopsis =
        "Stdlib comparison at a type ocamlopt cannot specialize (simulator \
         libraries)";
      rationale =
        "compare, =, <>, <, >, <= and >= at a type variable, tuple, \
         record, list, option or array, and min and max at any type (they \
         are functions, not primitives), compile to a C call into the \
         runtime's structural compare; in the engine and protocol code of \
         lib/congest, lib/embed and lib/core that call runs per message \
         or per round, where an Int.compare chain or Int.max is inline";
    };
  ]

(* ------------------------------------------------------------ helpers *)

let rec path_comps = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_comps p @ [ s ]
  | _ -> []

let path_display p = String.concat "." (path_comps p)

(* Last two components, so [Stdlib.Array.set], [Array.set] and
   [Dsf_util.Pack.layout] all match on (module, name).  Module aliases
   ([module H = Hashtbl]) are deliberately not chased. *)
let tail2 comps =
  match List.rev comps with
  | f :: m :: _ -> Some (m, f)
  | [ f ] -> Some ("", f)
  | [] -> None

(* In-place stdlib mutators: (module, name) -> positional target argument
   indices (among [Nolabel] args) and, when the write is keyed (array
   index / hash key), the key argument's position.  A keyed write into a
   captured container is sanctioned when the key is the step's own node
   id — the "one slot per node, touched only by its owner" idiom. *)
type mutator = { m_targets : int list; m_key : int option }

let mutators =
  [
    (("Array", "set"), { m_targets = [ 0 ]; m_key = Some 1 });
    (("Array", "unsafe_set"), { m_targets = [ 0 ]; m_key = Some 1 });
    (("Array", "fill"), { m_targets = [ 0 ]; m_key = None });
    (("Array", "blit"), { m_targets = [ 2 ]; m_key = None });
    (("Bytes", "set"), { m_targets = [ 0 ]; m_key = Some 1 });
    (("Bytes", "unsafe_set"), { m_targets = [ 0 ]; m_key = Some 1 });
    (("Bytes", "fill"), { m_targets = [ 0 ]; m_key = None });
    (("Bytes", "blit"), { m_targets = [ 2 ]; m_key = None });
    (("Hashtbl", "replace"), { m_targets = [ 0 ]; m_key = Some 1 });
    (("Hashtbl", "add"), { m_targets = [ 0 ]; m_key = Some 1 });
    (("Hashtbl", "remove"), { m_targets = [ 0 ]; m_key = Some 1 });
    (("Hashtbl", "reset"), { m_targets = [ 0 ]; m_key = None });
    (("Hashtbl", "clear"), { m_targets = [ 0 ]; m_key = None });
    (("Hashtbl", "filter_map_inplace"), { m_targets = [ 1 ]; m_key = None });
    (("Queue", "add"), { m_targets = [ 1 ]; m_key = None });
    (("Queue", "push"), { m_targets = [ 1 ]; m_key = None });
    (("Queue", "pop"), { m_targets = [ 0 ]; m_key = None });
    (("Queue", "take"), { m_targets = [ 0 ]; m_key = None });
    (("Queue", "take_opt"), { m_targets = [ 0 ]; m_key = None });
    (("Queue", "clear"), { m_targets = [ 0 ]; m_key = None });
    (("Queue", "transfer"), { m_targets = [ 0; 1 ]; m_key = None });
    (("Stack", "push"), { m_targets = [ 1 ]; m_key = None });
    (("Stack", "pop"), { m_targets = [ 0 ]; m_key = None });
    (("Stack", "pop_opt"), { m_targets = [ 0 ]; m_key = None });
    (("Stack", "clear"), { m_targets = [ 0 ]; m_key = None });
    (("Buffer", "add_char"), { m_targets = [ 0 ]; m_key = None });
    (("Buffer", "add_string"), { m_targets = [ 0 ]; m_key = None });
    (("Buffer", "add_bytes"), { m_targets = [ 0 ]; m_key = None });
    (("Buffer", "clear"), { m_targets = [ 0 ]; m_key = None });
    (("Buffer", "reset"), { m_targets = [ 0 ]; m_key = None });
    (("Buffer", "truncate"), { m_targets = [ 0 ]; m_key = None });
    (("Atomic", "set"), { m_targets = [ 0 ]; m_key = None });
    (("Atomic", "exchange"), { m_targets = [ 0 ]; m_key = None });
    (("Atomic", "compare_and_set"), { m_targets = [ 0 ]; m_key = None });
    (("Atomic", "fetch_and_add"), { m_targets = [ 0 ]; m_key = None });
    (("Atomic", "incr"), { m_targets = [ 0 ]; m_key = None });
    (("Atomic", "decr"), { m_targets = [ 0 ]; m_key = None });
  ]

(* Unqualified / [Stdlib]-qualified mutators. *)
let bare_mutators =
  [
    (":=", { m_targets = [ 0 ]; m_key = None });
    ("incr", { m_targets = [ 0 ]; m_key = None });
    ("decr", { m_targets = [ 0 ]; m_key = None });
  ]

(* Element reads: the result of [reader container key] shares ownership
   with the container (an element of a captured array is captured state,
   an element of the step's own state is owned). *)
let readers =
  [
    ("Array", "get"); ("Array", "unsafe_get"); ("Bytes", "get");
    ("Bytes", "unsafe_get"); ("Hashtbl", "find"); ("Hashtbl", "find_opt");
    ("Hashtbl", "find_all"); ("Queue", "peek"); ("Queue", "peek_opt");
    ("Queue", "top"); ("Stack", "top"); ("Stack", "top_opt"); ("Atomic", "get");
  ]

let bare_readers = [ "!" ]

let mutator_of comps =
  match tail2 comps with
  | Some (("" | "Stdlib"), f) when List.mem_assoc f bare_mutators ->
      Some (List.assoc f bare_mutators)
  | Some (m, f) -> List.assoc_opt (m, f) mutators
  | None -> None

let reader_of comps =
  match tail2 comps with
  | Some (("" | "Stdlib"), f) when List.mem f bare_readers -> true
  | Some (m, f) -> List.mem (m, f) readers
  | None -> false

(* Width-producing functions that are O(log n) by construction: they
   return bit counts derived from value ranges, never raw payloads. *)
let log_fns =
  [
    ("Pack", "width_of_max"); ("Pack", "total_width"); ("Pack", "field_width");
    ("Bitsize", "int_bits"); ("Bitsize", "id_bits"); ("Bitsize", "weight_bits");
    ("Bitsize", "congest_budget");
  ]

let is_log_fn comps =
  match tail2 comps with Some mf -> List.mem mf log_fns | None -> false

let head_path (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | _ -> None

let positional args idx =
  let rec go i = function
    | [] -> None
    | (Asttypes.Nolabel, Some a) :: rest ->
        if i = idx then Some a else go (i + 1) rest
    | (Asttypes.Nolabel, None) :: rest -> go (i + 1) rest
    | _ :: rest -> go i rest
  in
  go 0 args

let type_name (e : Typedtree.expression) =
  match Types.get_desc e.Typedtree.exp_type with
  | Types.Tconstr (p, _, _) -> Some (Path.last p)
  | _ -> None

(* --------------------------------------------------- ownership lattice *)

(* Where a value comes from, relative to the function under analysis:
   - [Owned]: reached from the analyzed function's own parameters (the
     step's view / state / inbox / emit) — mutation is node-local.
   - [SelfIdx]: the integer node id of the running step ([view.node] or a
     local alias of it) — the one key that may index captured per-node
     storage.  Any arithmetic on it degrades to [Local]: an offset node
     id can reach a neighbor's slot.
   - [Local]: allocated or computed inside the analyzed function.
   - [Captured]: free variables (including the unit's toplevel) and other
     modules' state — mutation escapes the node. *)
type origin = Owned | SelfIdx | Local | Captured

let join a b =
  match (a, b) with
  | Captured, _ | _, Captured -> Captured
  | SelfIdx, SelfIdx -> SelfIdx
  | Owned, _ | _, Owned -> Owned
  | _ -> Local

type wstate = {
  env : (string, origin) Hashtbl.t;  (* Ident.unique_name -> origin *)
  mutable allows : string list;  (* active [@lint.allow] ids *)
  on_mut : name:string -> detail:string -> Location.t -> unit;
  on_free_ref : unique:string -> name:string -> Location.t -> unit;
}

let bind st p o =
  List.iter
    (fun id -> Hashtbl.replace st.env (Ident.unique_name id) o)
    (Typedtree.pat_bound_idents p)

let lookup st id = Hashtbl.find_opt st.env (Ident.unique_name id)

let rec origin_of st (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      match lookup st id with Some o -> o | None -> Captured)
  | Texp_ident _ -> Captured
  | Texp_constant _ -> Local
  | Texp_field (b, _, lbl) ->
      let ob = origin_of st b in
      if lbl.Types.lbl_name = "node" && ob = Owned then SelfIdx
      else if ob = SelfIdx then Local
      else ob
  | Texp_apply (f, args) -> (
      match head_path f with
      | Some p when reader_of (path_comps p) -> (
          match positional args 0 with
          | Some c -> ( match origin_of st c with SelfIdx -> Local | o -> o)
          | None -> Local)
      | _ -> Local)
  | Texp_let (_, _, b) | Texp_sequence (_, b) -> origin_of st b
  | Texp_ifthenelse (_, a, Some b) -> join (origin_of st a) (origin_of st b)
  | Texp_ifthenelse (_, a, None) -> origin_of st a
  | Texp_match (_, cases, _) ->
      List.fold_left
        (fun acc (c : _ Typedtree.case) ->
          join acc (origin_of st c.Typedtree.c_rhs))
        Local cases
  | _ -> Local

(* The target of a keyed read may itself be an own slot of a captured
   container ([storage.(view.node)]): treat it as owned for mutation. *)
let target_origin st (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Texp_apply (f, args) -> (
      match head_path f with
      | Some p when reader_of (path_comps p) -> (
          match positional args 0 with
          | Some c when origin_of st c = Captured -> (
              match positional args 1 with
              | Some k when origin_of st k = SelfIdx -> Owned
              | _ -> Captured)
          | Some c -> ( match origin_of st c with SelfIdx -> Local | o -> o)
          | None -> Local)
      | _ -> Local)
  | _ -> origin_of st e

let rec describe (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Texp_ident (p, _, _) -> path_display p
  | Texp_field (b, _, lbl) -> describe b ^ "." ^ lbl.Types.lbl_name
  | Texp_apply (f, args) -> (
      match (head_path f, positional args 0) with
      | Some p, Some c when reader_of (path_comps p) -> describe c ^ ".(_)"
      | _ -> "<expr>")
  | _ -> "<expr>"

let active st rule = List.mem "*" st.allows || List.mem rule st.allows

let check_target st ~how ~key target loc =
  if target_origin st target = Captured then
    let own_key =
      match key with Some k -> origin_of st k = SelfIdx | None -> false
    in
    if (not own_key) && not (active st rule_domain_race) then
      st.on_mut ~name:(describe target) ~detail:how loc

(* ------------------------------------------------------------ the walk *)

let with_allows st allows f =
  if allows = [] then f ()
  else begin
    let saved = st.allows in
    st.allows <- allows @ st.allows;
    f ();
    st.allows <- saved
  end

let rec walk st (e : Typedtree.expression) =
  with_allows st (Lint.allow_ids e.Typedtree.exp_attributes) @@ fun () ->
  match e.Typedtree.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
      (* Any reference (call or closure capture) to a free local ident:
         the caller decides whether it names a tainted mutator. *)
      if lookup st id = None then
        st.on_free_ref ~unique:(Ident.unique_name id) ~name:(Ident.name id)
          e.Typedtree.exp_loc
  | Texp_ident _ | Texp_constant _ -> ()
  | Texp_let (rf, vbs, body) ->
      if rf = Asttypes.Recursive then
        List.iter (fun vb -> bind st vb.Typedtree.vb_pat Local) vbs;
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          with_allows st (Lint.allow_ids vb.vb_attributes) @@ fun () ->
          walk st vb.vb_expr;
          if rf <> Asttypes.Recursive then
            bind st vb.vb_pat (origin_of st vb.vb_expr))
        vbs;
      walk st body
  | Texp_function { param; cases; _ } ->
      (* A nested closure: its parameters are fresh values, but mutations
         inside it still resolve against the enclosing ownership env —
         this is exactly how a closure smuggles another node's state. *)
      Hashtbl.replace st.env (Ident.unique_name param) Local;
      walk_cases st Local cases
  | Texp_apply (f, args) ->
      (match head_path f with
      | Some p ->
          let comps = path_comps p in
          (match mutator_of comps with
          | Some m ->
              let key = Option.bind m.m_key (positional args) in
              List.iter
                (fun ti ->
                  match positional args ti with
                  | Some target ->
                      check_target st
                        ~how:(String.concat "." comps)
                        ~key target e.Typedtree.exp_loc
                  | None -> ())
                m.m_targets
          | None -> ());
          (match p with
          | Path.Pident id when lookup st id = None ->
              st.on_free_ref ~unique:(Ident.unique_name id)
                ~name:(Ident.name id) e.Typedtree.exp_loc
          | _ -> ())
      | None -> walk st f);
      List.iter (fun (_, a) -> Option.iter (walk st) a) args
  | Texp_setfield (obj, _, lbl, v) ->
      check_target st
        ~how:("<- on mutable field " ^ lbl.Types.lbl_name)
        ~key:None obj e.Typedtree.exp_loc;
      walk st obj;
      walk st v
  | Texp_match (scrut, cases, _) ->
      walk st scrut;
      walk_cases st (origin_of st scrut) cases
  | Texp_try (b, cases) ->
      walk st b;
      walk_cases st Local cases
  | Texp_for (id, _, lo, hi, _, body) ->
      Hashtbl.replace st.env (Ident.unique_name id) Local;
      walk st lo;
      walk st hi;
      walk st body
  | Texp_field (b, _, _) -> walk st b
  | _ ->
      (* Generic traversal for the remaining constructors (tuples,
         constructs, sequences, arrays, while, assert, ...): dispatch
         every child expression back through [walk]. *)
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ child -> walk st child);
        }
      in
      Tast_iterator.default_iterator.expr it e

and walk_cases : type k. wstate -> origin -> k Typedtree.case list -> unit =
 fun st o cases ->
  List.iter
    (fun (c : k Typedtree.case) ->
      bind st c.Typedtree.c_lhs o;
      Option.iter (walk st) c.Typedtree.c_guard;
      walk st c.Typedtree.c_rhs)
    cases

let is_function (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with Texp_function _ -> true | _ -> false

(* Analyze one function: bind the leading parameter chain as [params]
   (Owned for protocol hooks, Local for the taint pre-pass), then walk
   the body reporting free-target mutations and free-ident references. *)
let analyze_function ~params ~on_mut ~on_free_ref (fexpr : Typedtree.expression)
    =
  let st = { env = Hashtbl.create 64; allows = []; on_mut; on_free_ref } in
  let rec peel (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Texp_function { param; cases = [ c ]; _ }
      when c.Typedtree.c_guard = None ->
        Hashtbl.replace st.env (Ident.unique_name param) params;
        bind st c.Typedtree.c_lhs params;
        peel c.Typedtree.c_rhs
    | _ -> walk st e
  in
  with_allows st (Lint.allow_ids fexpr.Typedtree.exp_attributes) @@ fun () ->
  peel fexpr

(* ------------------------------------------- per-unit interprocedural *)

type def = { d_name : string; d_expr : Typedtree.expression }

let collect_defs (str : Typedtree.structure) =
  let defs = Hashtbl.create 64 in
  let default = Tast_iterator.default_iterator in
  let value_binding it (vb : Typedtree.value_binding) =
    (match vb.vb_pat.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) ->
        Hashtbl.replace defs (Ident.unique_name id)
          { d_name = Ident.name id; d_expr = vb.vb_expr }
    | _ -> ());
    default.value_binding it vb
  in
  let it = { default with value_binding } in
  it.structure it str;
  defs

(* Fixpoint taint: a unit-local function is tainted when it mutates its
   free variables, or (transitively) references a tainted sibling. *)
let compute_taint defs =
  let summaries = Hashtbl.create 64 in
  Hashtbl.iter
    (fun u d ->
      if is_function d.d_expr then begin
        let muts = ref [] and refs = ref [] in
        analyze_function ~params:Local
          ~on_mut:(fun ~name ~detail:_ _ -> muts := name :: !muts)
          ~on_free_ref:(fun ~unique ~name:_ _ -> refs := unique :: !refs)
          d.d_expr;
        Hashtbl.replace summaries u (!muts, !refs)
      end)
    defs;
  let tainted = Hashtbl.create 16 in
  Hashtbl.iter
    (fun u (muts, _) ->
      match muts with
      | name :: _ ->
          Hashtbl.replace tainted u
            (Printf.sprintf "mutates captured `%s'" name)
      | [] -> ())
    summaries;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun u (_, refs) ->
        if not (Hashtbl.mem tainted u) then
          List.iter
            (fun r ->
              if Hashtbl.mem tainted r && not (Hashtbl.mem tainted u) then begin
                let d = Hashtbl.find defs r in
                Hashtbl.replace tainted u
                  (Printf.sprintf "references `%s', which %s" d.d_name
                     (Hashtbl.find tainted r));
                changed := true
              end)
            refs)
      summaries
  done;
  tainted

(* ------------------------------------------------------ width checking *)

let rec const_eval defs depth (e : Typedtree.expression) : int option =
  if depth <= 0 then None
  else
    match e.Typedtree.exp_desc with
    | Texp_constant (Asttypes.Const_int n) -> Some n
    | Texp_apply (f, [ (_, Some a); (_, Some b) ]) -> (
        match head_path f with
        | Some p -> (
            let op =
              match List.rev (path_comps p) with o :: _ -> o | [] -> ""
            in
            match (const_eval defs (depth - 1) a, const_eval defs (depth - 1) b)
            with
            | Some x, Some y -> (
                match op with
                | "+" -> Some (x + y)
                | "-" -> Some (x - y)
                | "*" -> Some (x * y)
                | "max" -> Some (max x y)
                | "min" -> Some (min x y)
                | "lsl" -> Some (x lsl y)
                | "land" -> Some (x land y)
                | "lor" -> Some (x lor y)
                | _ -> None)
            | _ -> None)
        | None -> None)
    | Texp_ident (Path.Pident id, _, _) -> (
        match Hashtbl.find_opt defs (Ident.unique_name id) with
        | Some d -> const_eval defs (depth - 1) d.d_expr
        | None -> None)
    | Texp_ident (p, _, _)
      when tail2 (path_comps p) = Some ("Pack", "max_total_width") ->
        Some 62
    | _ -> None

(* A width expression is acceptable when it is a compile-time constant or
   provably O(log n): an application of a width-producing function, or a
   +/-/*/max/min combination of acceptable terms (resolved through local
   let-bindings). *)
type width = Wconst of int | Wlog | Wunknown

let combining_ops = [ "+"; "-"; "*"; "max"; "min" ]

let rec classify_width defs depth (e : Typedtree.expression) : width =
  match const_eval defs depth e with
  | Some n -> Wconst n
  | None -> (
      if depth <= 0 then Wunknown
      else
        match e.Typedtree.exp_desc with
        | Texp_apply (f, args) -> (
            match head_path f with
            | Some p when is_log_fn (path_comps p) -> Wlog
            | Some p
              when (match List.rev (path_comps p) with
                   | o :: _ -> List.mem o combining_ops
                   | [] -> false)
                   && List.length args = 2 -> (
                match args with
                | [ (_, Some a); (_, Some b) ] -> (
                    match
                      ( classify_width defs (depth - 1) a,
                        classify_width defs (depth - 1) b )
                    with
                    | Wunknown, _ | _, Wunknown -> Wunknown
                    | _ -> Wlog)
                | _ -> Wunknown)
            | _ -> Wunknown)
        | Texp_ident (Path.Pident id, _, _) -> (
            match Hashtbl.find_opt defs (Ident.unique_name id) with
            | Some d -> classify_width defs (depth - 1) d.d_expr
            | None -> Wunknown)
        | _ -> Wunknown)

let rec list_elems (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Texp_construct (_, cd, []) when cd.Types.cstr_name = "[]" -> Some []
  | Texp_construct (_, cd, [ hd; tl ]) when cd.Types.cstr_name = "::" ->
      Option.map (fun r -> hd :: r) (list_elems tl)
  | _ -> None

let max_word = 62

(* ------------------------------------------------------------ findings *)

type fctx = {
  f_file : string;
  defs : (string, def) Hashtbl.t;
  tainted : (string, string) Hashtbl.t;
  mutable f_allows : string list;  (* floating/module-level allows *)
  mutable out : Finding.t list;
}

let femit ctx ~(loc : Location.t) ~rule ~message ~hint =
  if not (List.mem "*" ctx.f_allows || List.mem rule ctx.f_allows) then begin
    let p = loc.Location.loc_start in
    let file =
      let f = p.Lexing.pos_fname in
      if f = "" || f = "_none_" then ctx.f_file else Lint.normalize f
    in
    ctx.out <-
      {
        Finding.file;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        rule;
        message;
        hint;
      }
      :: ctx.out
  end

let race_hint =
  "a flat step may mutate only state reached from its own arguments (or \
   a captured per-node slot indexed by view.node); thread shared inputs \
   through fp_init into the node state, or mark a proven-safe site with \
   [@lint.allow \"domain-race\"]"

let width_hint =
  "CONGEST messages are O(log n) bits and packed words top out at 62; \
   derive widths with Pack.width_of_max / Bitsize.int_bits so the bound \
   is a theorem, or mark a proven-safe site with [@lint.allow \
   \"congest-width\"]"

let check_protocol_fn ctx ~field (fexpr : Typedtree.expression) =
  let allows = ctx.f_allows in
  analyze_function ~params:Owned
    ~on_mut:(fun ~name ~detail loc ->
      if not (List.mem "*" allows || List.mem rule_domain_race allows) then
        femit ctx ~loc ~rule:rule_domain_race
          ~message:
            (Printf.sprintf
               "%s mutates captured state `%s' (via %s) that its own node \
                does not own"
               field name detail)
          ~hint:race_hint)
    ~on_free_ref:(fun ~unique ~name loc ->
      match Hashtbl.find_opt ctx.tainted unique with
      | Some reason ->
          femit ctx ~loc ~rule:rule_domain_race
            ~message:
              (Printf.sprintf
                 "%s references `%s', which %s — shared mutable state \
                  escapes the node"
                 field name reason)
            ~hint:race_hint
      | None -> ())
    fexpr

let check_layout ctx (e : Typedtree.expression) args =
  match positional args 0 with
  | None -> ()
  | Some arg -> (
      let loc = e.Typedtree.exp_loc in
      match list_elems arg with
      | None ->
          femit ctx ~loc ~rule:rule_congest_width
            ~message:
              "Pack.layout applied to a non-literal width list — the \
               62-bit bound cannot be verified statically"
            ~hint:width_hint
      | Some elems ->
          let widths = List.map (classify_width ctx.defs 8) elems in
          List.iteri
            (fun i w ->
              match w with
              | Wunknown ->
                  femit ctx ~loc ~rule:rule_congest_width
                    ~message:
                      (Printf.sprintf
                         "field %d of this Pack.layout has a width that is \
                          not statically O(log n) (neither a constant nor \
                          derived from width_of_max / Bitsize)"
                         i)
                    ~hint:width_hint
              | Wconst n when n < 1 ->
                  femit ctx ~loc ~rule:rule_congest_width
                    ~message:
                      (Printf.sprintf
                         "field %d of this Pack.layout has width %d (< 1)" i
                         n)
                    ~hint:width_hint
              | _ -> ())
            widths;
          let const_sum =
            List.fold_left
              (fun acc w -> match w with Wconst n when n >= 1 -> acc + n | _ -> acc)
              0 widths
          in
          let log_terms =
            List.length
              (List.filter (fun w -> w = Wlog) widths)
          in
          (* Every log-derived field is at least 1 bit, so constants plus
             the log-term count lower-bound the packed width. *)
          if const_sum + log_terms > max_word then
            femit ctx ~loc ~rule:rule_congest_width
              ~message:
                (Printf.sprintf
                   "Pack.layout packs at least %d bits (constants %d + %d \
                    variable field%s) — exceeds the %d-bit CONGEST word"
                   (const_sum + log_terms) const_sum log_terms
                   (if log_terms = 1 then "" else "s")
                   max_word)
              ~hint:width_hint)

let check_msg_bits ctx (fexpr : Typedtree.expression) =
  (* Strip the parameter chain, check each body: a constant declared
     width > 62, or a bare literal > 62 outside a width-function call,
     means the protocol claims message sizes the model forbids. *)
  let rec bodies (e : Typedtree.expression) k =
    match e.Typedtree.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter (fun (c : _ Typedtree.case) -> bodies c.Typedtree.c_rhs k)
          cases
    | _ -> k e
  in
  bodies fexpr @@ fun body ->
  match const_eval ctx.defs 8 body with
  | Some n when n > max_word ->
      femit ctx ~loc:body.Typedtree.exp_loc ~rule:rule_congest_width
        ~message:
          (Printf.sprintf
             "fp_msg_bits declares %d bits per message — exceeds the \
              %d-bit CONGEST word"
             n max_word)
        ~hint:width_hint
  | Some _ -> ()
  | None ->
      (* Scan for oversized literals, skipping subtrees that compute
         widths from value ranges (Bitsize.int_bits (max d 100) is 7
         bits, not 100). *)
      let rec scan (e : Typedtree.expression) =
        match e.Typedtree.exp_desc with
        | Texp_constant (Asttypes.Const_int n) when n > max_word ->
            femit ctx ~loc:e.Typedtree.exp_loc ~rule:rule_congest_width
              ~message:
                (Printf.sprintf
                   "fp_msg_bits contains the literal bit count %d — \
                    exceeds the %d-bit CONGEST word"
                   n max_word)
              ~hint:width_hint
        | Texp_apply (f, args) ->
            let skip =
              match head_path f with
              | Some p -> is_log_fn (path_comps p)
              | None -> false
            in
            if not skip then begin
              scan f;
              List.iter (fun (_, a) -> Option.iter scan a) args
            end
        | _ ->
            let it =
              {
                Tast_iterator.default_iterator with
                expr = (fun _ child -> scan child);
              }
            in
            Tast_iterator.default_iterator.expr it e
      in
      scan body

(* --------------------------------------------------------- env-dropped *)

(* [Sim.env] as the typer resolved it: a type constructor named [env]
   reached through [Sim] (module aliases, [-open] prefixes and dune's
   [Lib__Sim] mangling included), or the bare [env] inside sim.ml. *)
let is_env_type ~file ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> (
      match List.rev (path_comps p) with
      | "env" :: m :: _ -> m = "Sim" || String.ends_with ~suffix:"__Sim" m
      | [ "env" ] -> Filename.basename file = "sim.ml"
      | _ -> false)
  | _ -> false

let binds_env ~file p =
  List.exists
    (fun (_, _, ty) -> is_env_type ~file ty)
    (Typedtree.pat_bound_idents_full p)

(* An [?env:Sim.env] argument the caller omitted: the typer fills the
   eliminated optional with a [None] at [Location.none] (an explicit
   [?env:None] keeps its source location). *)
let omits_env ~file args =
  List.exists
    (function
      | Asttypes.Optional "env", Some (a : Typedtree.expression) -> (
          a.Typedtree.exp_loc = Location.none
          &&
          match Types.get_desc a.Typedtree.exp_type with
          | Types.Tconstr (_, [ ty ], _) -> is_env_type ~file ty
          | _ -> false)
      | _ -> false)
    args

let env_hint =
  "pass ~env (or the variant you mean, built by record update: { env with \
   ... }); mark a deliberately fresh environment with [@lint.allow \
   \"env-dropped\"]"

(* -------------------------------------------------------- poly-compare *)

(* The simulator: engine, embeddings and algorithms, whose comparisons
   run per message or per round. *)
let poly_compare_dirs = [ "lib/congest/"; "lib/embed/"; "lib/core/" ]

let in_poly_compare_scope file =
  let file = Lint.normalize file in
  List.exists (fun d -> String.starts_with ~prefix:d file) poly_compare_dirs

let poly_compare_ops =
  [ "compare"; "="; "<>"; "<"; ">"; "<="; ">="; "min"; "max" ]

let is_poly_compare p =
  match path_comps p with
  | [ "Stdlib"; op ] -> List.mem op poly_compare_ops
  | _ -> false

(* ocamlopt compiles [x = C] and [x <> C], for a constant constructor or
   argument-less variant [C], to an integer test whatever the type. *)
let is_constant_constructor (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Texp_construct (_, { Types.cstr_tag = Types.Cstr_constant _; _ }, _)
  | Texp_variant (_, None) ->
      true
  | _ -> false

let inline_constant_test f args =
  match Option.map path_comps (head_path f) with
  | Some [ "Stdlib"; ("=" | "<>") ] ->
      List.exists
        (function _, Some a -> is_constant_constructor a | _, None -> false)
        args
  | _ -> false

(* The operand type as ocamlopt's comparison specialization sees it,
   abbreviations expanded: a type variable, tuple, record, list, option
   or array keeps the generic C primitive.  A [.cmt] keeps only environment
   summaries, so the full environment is rebuilt (from the [.cmi] files on
   the unit's load path, see [check_cmt]) when a type constructor has to
   be expanded or looked up. *)
let generic_operand (e : Typedtree.expression) =
  let classify env ty =
    match Types.get_desc ty with
    | Types.Tvar _ | Types.Tunivar _ -> Some "a type variable"
    | Types.Ttuple _ -> Some "a tuple"
    | Types.Tconstr (p, _, _) when Path.same p Predef.path_list -> Some "a list"
    | Types.Tconstr (p, _, _) when Path.same p Predef.path_option ->
        Some "an option"
    | Types.Tconstr (p, _, _) when Path.same p Predef.path_array ->
        Some "an array"
    | Types.Tconstr (p, _, _) -> (
        match (Env.find_type p env).Types.type_kind with
        | Types.Type_record _ -> Some ("the record " ^ path_display p)
        | _ -> None
        | exception Not_found -> None)
    | _ -> None
  in
  match Types.get_desc e.Typedtree.exp_type with
  | Types.Tarrow (_, ty, _, _) -> (
      match Types.get_desc ty with
      | Types.Tconstr (Path.Pident id, _, _) when Ident.is_predef id ->
          classify Env.empty ty
      | Types.Tconstr _ ->
          let env = Envaux.env_of_only_summary e.Typedtree.exp_env in
          classify env (Ctype.expand_head env ty)
      | _ -> classify Env.empty ty)
  | _ -> None

let poly_hint =
  "compare field by field with Int.compare (or give the operand the type \
   int), or mark a cold site (abort or inspect printing) with [@lint.allow \
   \"poly-compare\"] and a one-line reason"

(* [Stdlib.min] and [max] are functions whose body is a polymorphic
   compare, so even at [int] the call lands in the runtime's compare. *)
let min_max_hint =
  "use Int.min / Int.max (Float.min / Float.max at float), which compile \
   to one inline compare"

let check_poly_compare ctx (e : Typedtree.expression) p =
  match Path.last p, generic_operand e with
  | (("min" | "max") as op), _ ->
      femit ctx ~loc:e.Typedtree.exp_loc ~rule:rule_poly_compare
        ~message:
          (Printf.sprintf
             "Stdlib.%s is a function, not a primitive: it calls the \
              runtime's structural compare at every type"
             op)
        ~hint:min_max_hint
  | op, Some kind ->
      femit ctx ~loc:e.Typedtree.exp_loc ~rule:rule_poly_compare
        ~message:
          (Printf.sprintf
             "polymorphic `%s' at %s: ocamlopt calls the runtime's \
              structural compare instead of an inline compare"
             op kind)
        ~hint:poly_hint
  | _, None -> ()

(* ------------------------------------------------------------ the pass *)

let analyze_structure ~file (str : Typedtree.structure) =
  let defs = collect_defs str in
  let tainted = compute_taint defs in
  let ctx = { f_file = file; defs; tainted; f_allows = []; out = [] } in
  let poly_scope = in_poly_compare_scope file in
  let default = Tast_iterator.default_iterator in
  (* env-dropped scope: how many enclosing binders (function parameters,
     let- and match-bound variables) of type [Sim.env] are visible.
     Toplevel definitions such as [Sim.default_env] do not count. *)
  let env_scope = ref 0 in
  let scoped bound f =
    if bound then begin
      incr env_scope;
      f ();
      decr env_scope
    end
    else f ()
  in
  let expr it (e : Typedtree.expression) =
    let saved = ctx.f_allows in
    ctx.f_allows <- Lint.allow_ids e.Typedtree.exp_attributes @ ctx.f_allows;
    (match e.Typedtree.exp_desc with
    | Texp_apply (f, args) when !env_scope > 0 && omits_env ~file args ->
        let callee =
          match head_path f with Some p -> path_display p | None -> "<fun>"
        in
        femit ctx ~loc:e.Typedtree.exp_loc ~rule:rule_env_dropped
          ~message:
            (Printf.sprintf
               "call to `%s' omits ?env while a Sim.env is in scope — the \
                run falls back to Sim.default_env"
               callee)
          ~hint:env_hint
    | _ -> ());
    (match e.Typedtree.exp_desc with
    | Texp_record { fields; _ } when type_name e = Some "flat_protocol" ->
        Array.iter
          (fun ((lbl : Types.label_description), d) ->
            match d with
            | Typedtree.Overridden (_, fe) -> (
                match lbl.Types.lbl_name with
                | ("fp_step" | "fp_init") when is_function fe ->
                    check_protocol_fn ctx ~field:lbl.Types.lbl_name fe
                | "fp_msg_bits" -> check_msg_bits ctx fe
                | _ -> ())
            | _ -> ())
          fields
    | Texp_apply (f, args) -> (
        match head_path f with
        | Some p when tail2 (path_comps p) = Some ("Pack", "layout") ->
            check_layout ctx e args
        | _ -> ())
    | Texp_ident (p, _, _) when poly_scope && is_poly_compare p ->
        check_poly_compare ctx e p
    | _ -> ());
    (* A let body is walked in scope of its env binders (function and
       match cases are scoped by [case] below). *)
    (match e.Typedtree.exp_desc with
    | Texp_let (Asttypes.Nonrecursive, vbs, body) ->
        List.iter (it.Tast_iterator.value_binding it) vbs;
        scoped
          (List.exists
             (fun (vb : Typedtree.value_binding) ->
               binds_env ~file vb.Typedtree.vb_pat)
             vbs)
          (fun () -> it.Tast_iterator.expr it body)
    | Texp_apply (f, args) when poly_scope && inline_constant_test f args ->
        List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
    | _ -> default.expr it e);
    ctx.f_allows <- saved
  in
  (* Floating [@@@lint.allow] attributes scope over the remainder of the
     enclosing structure, mirroring the Parsetree pass. *)
  let structure it (s : Typedtree.structure) =
    let saved = ctx.f_allows in
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.Typedtree.str_desc with
        | Typedtree.Tstr_attribute a ->
            ctx.f_allows <- Lint.allow_ids [ a ] @ ctx.f_allows
        | _ -> default.structure_item it si)
      s.Typedtree.str_items;
    ctx.f_allows <- saved
  in
  let case : type k. Tast_iterator.iterator -> k Typedtree.case -> unit =
   fun it c ->
    scoped (binds_env ~file c.Typedtree.c_lhs) (fun () -> default.case it c)
  in
  let it = { default with expr; structure; case } in
  it.structure it str;
  List.sort Finding.compare ctx.out

(* -------------------------------------------------------- cmt scanning *)

(* Points the compiler's load path at the unit's own, so [Envaux] can
   rebuild its environments from the [.cmi] files it was compiled
   against.  Relative entries are relative to the build root, which dune
   records as a placeholder [cmt_builddir]; the root is the nearest
   ancestor of the [.cmt] holding the unit's source under its recorded
   relative path (dune copies sources into its build tree). *)
let init_load_path path (infos : Cmt_format.cmt_infos) =
  let src = Option.value infos.Cmt_format.cmt_sourcefile ~default:"" in
  let rec find_root d =
    if Sys.file_exists (Filename.concat d src) then d
    else
      let up = Filename.dirname d in
      if up = d then infos.Cmt_format.cmt_builddir else find_root up
  in
  let dir = Filename.dirname path in
  let root =
    find_root
      (if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir
       else dir)
  in
  Load_path.init ~auto_include:Load_path.no_auto_include
    (List.map
       (fun d -> if Filename.is_relative d then Filename.concat root d else d)
       infos.Cmt_format.cmt_loadpath);
  Envaux.reset_cache ()

let check_cmt ?file path : (Finding.t list, string) result =
  match Cmt_format.read_cmt path with
  | infos -> (
      let file =
        match (file, infos.Cmt_format.cmt_sourcefile) with
        | Some f, _ | None, Some f -> Lint.normalize f
        | None, None -> path
      in
      match infos.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str -> (
          init_load_path path infos;
          match analyze_structure ~file str with
          | findings -> Ok findings
          | exception Envaux.Error err ->
              Error
                (Format.asprintf "%s: cannot rebuild a typing environment: %a"
                   path Envaux.report_error err))
      | _ -> Ok [] (* interfaces / partial units: nothing to analyze *))
  (* Intentional firewall, mirroring Lint.check_string: an unreadable or
     version-skewed cmt becomes a per-file error, not a dead scan. *)
  | exception (exn [@lint.allow "catch-all"]) ->
      Error (path ^ ": " ^ Printexc.to_string exn)

(* Unlike the source walker, cmt artifacts live under dot-directories
   (_build/.../.libname.objs/byte), so nothing is skipped here; [.cmti]
   (interfaces) carry no expressions and are filtered by suffix. *)
let rec walk acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> walk acc (Filename.concat path entry))
      acc
      (let es = Sys.readdir path in
       Array.sort compare es;
       es)
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let scan ~roots =
  let files = List.rev (List.fold_left walk [] roots) in
  let findings, errors =
    List.fold_left
      (fun (fs, es) file ->
        match check_cmt file with
        | Ok f -> (f :: fs, es)
        | Error e -> (fs, e :: es))
      ([], []) files
  in
  (List.sort_uniq Finding.compare (List.concat findings), List.rev errors)
