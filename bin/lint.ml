(* dsf-lint driver: scan, subtract suppressions and the baseline, render.
   Exit 0 = clean, 1 = findings, 2 = a file failed to parse or read.
   Two passes share this driver: the default Parsetree scan over [.ml]
   sources, and [--typed], which runs the Typedtree rules over compiler
   [.cmt] artifacts (see lib/lint/typed_lint.mli).  Findings are always
   reported in Finding.compare order — (file, line, rule) — so text and
   --json output are stable across filesystem orderings.
   See the "Static analysis" section of HACKING.md for the rule
   catalogue and the suppression syntax. *)

let usage =
  "dsf-lint: repo-specific invariant checks (determinism, domain-safety, \
   CONGEST discipline)\n\
   usage: lint [options] [paths]   (default paths: lib bin bench)\n\
   \       lint --typed [paths]    (default path: _build/default/lib, \
   scanning .cmt artifacts)\n\
   options:"

let () =
  let json = ref false in
  let baseline_file = ref "" in
  let update_baseline = ref false in
  let list_rules = ref false in
  let typed = ref false in
  let root = ref "" in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit findings as JSON on stdout");
      ( "--typed",
        Arg.Set typed,
        " run the Typedtree rules (domain-race, congest-width, \
         env-dropped, poly-compare) over .cmt artifacts instead of parsing \
         sources" );
      ( "--baseline",
        Arg.Set_string baseline_file,
        "FILE subtract grandfathered findings recorded in FILE" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        " rewrite the --baseline file to cover the current findings" );
      ( "--root",
        Arg.Set_string root,
        "DIR chdir to DIR before scanning (paths are reported relative)" );
      ("--rules", Arg.Set list_rules, " print the rule catalogue and exit");
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    let print_rule (r : Dsf_lint.Lint.rule) =
      Printf.printf "%-22s %s\n%-22s   why: %s\n" r.id r.synopsis "" r.rationale
    in
    List.iter print_rule Dsf_lint.Lint.rules;
    print_endline "typed rules (lint --typed, over .cmt artifacts):";
    List.iter print_rule Dsf_lint.Typed_lint.rules;
    exit 0
  end;
  if !root <> "" then Sys.chdir !root;
  let findings, errors =
    if !typed then begin
      let roots =
        match List.rev !paths with
        | [] ->
            (* Inside dune's build context the library trees sit next to
               their .objs; from a source checkout, prefer the build dir. *)
            let d = Filename.concat "_build" "default" in
            let lib = Filename.concat d "lib" in
            [ (if Sys.file_exists lib then lib else "lib") ]
        | ps -> ps
      in
      Dsf_lint.Typed_lint.scan ~roots
    end
    else
      let roots =
        match List.rev !paths with [] -> [ "lib"; "bin"; "bench" ] | ps -> ps
      in
      Dsf_lint.Lint.scan ~roots
  in
  if errors <> [] then begin
    List.iter (Printf.eprintf "lint: %s\n") errors;
    exit 2
  end;
  if !update_baseline then begin
    if !baseline_file = "" then begin
      prerr_endline "lint: --update-baseline requires --baseline FILE";
      exit 2
    end;
    Dsf_lint.Lint.Baseline.save !baseline_file findings;
    Printf.printf "lint: wrote %d baseline entr%s to %s\n"
      (List.length findings)
      (if List.length findings = 1 then "y" else "ies")
      !baseline_file;
    exit 0
  end;
  let entries =
    if !baseline_file = "" then [] else Dsf_lint.Lint.Baseline.load !baseline_file
  in
  let kept, suppressed, stale = Dsf_lint.Lint.Baseline.apply entries findings in
  let kept = List.sort Dsf_lint.Finding.compare kept in
  if !json then print_endline (Dsf_lint.Finding.json_of_list kept)
  else begin
    List.iter
      (fun f -> Format.printf "@[<v>%a@]@." Dsf_lint.Finding.pp f)
      kept;
    List.iter
      (fun (e : Dsf_lint.Lint.Baseline.entry) ->
        Printf.printf
          "lint: stale baseline entry (no longer fires): %s [%s] %s\n"
          e.bfile e.brule e.bmessage)
      stale;
    if kept = [] then
      Printf.printf "lint: clean (%d file-scoped suppression%s via baseline)\n"
        suppressed
        (if suppressed = 1 then "" else "s")
    else
      Printf.printf "lint: %d finding%s (%d baselined)\n" (List.length kept)
        (if List.length kept = 1 then "" else "s")
        suppressed
  end;
  exit (if kept = [] then 0 else 1)
