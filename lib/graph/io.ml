type parsed =
  | Ic of Instance.ic
  | Cr of Instance.cr
  | Plain of Graph.t

exception Parse_error of int * string

let max_n = 1 lsl 24

let fail lineno msg = raise (Parse_error (lineno, msg))

(* The integer fields of each directive, for arity errors. *)
let directive_fields = function
  | "n" -> Some [ "n" ]
  | "edge" -> Some [ "u"; "v"; "w" ]
  | "label" -> Some [ "v"; "l" ]
  | "request" -> Some [ "u"; "v" ]
  | _ -> None

(* The blank-separated words of one line, its [#] comment stripped. *)
let words_of line =
  let line =
    match String.index_opt line '#' with
    | Some j -> String.sub line 0 j
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

(* Every directive keeps its line number, so semantic errors found after
   the scan (graph validation, out-of-range nodes) still point at the line
   that caused them. *)
let parse_string text =
  let lines = String.split_on_char '\n' text in
  let n = ref (-1) and n_line = ref 0 in
  let edges = ref [] in
  let labels = ref [] in
  let requests = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let int_arg w =
        match int_of_string_opt w with
        | Some x -> x
        | None -> fail lineno (Printf.sprintf "expected integer, got %S" w)
      in
      match words_of line with
      | [] -> ()
      | [ "n"; x ] ->
          if !n_line > 0 then fail lineno "duplicate n line";
          n := int_arg x;
          if !n <= 0 then fail lineno "n must be positive";
          if !n > max_n then
            fail lineno (Printf.sprintf "n %d exceeds the bound %d" !n max_n);
          n_line := lineno
      | [ "edge"; u; v; w ] ->
          edges := (lineno, (int_arg u, int_arg v, int_arg w)) :: !edges
      | [ "label"; v; l ] -> labels := (lineno, int_arg v, int_arg l) :: !labels
      | [ "request"; u; v ] ->
          requests := (lineno, int_arg u, int_arg v) :: !requests
      | w :: args -> (
          match directive_fields w with
          | Some fields ->
              let k = List.length fields in
              fail lineno
                (Printf.sprintf "%s needs %d integer%s (%s), got %d" w k
                   (if k = 1 then "" else "s")
                   (String.concat " " fields) (List.length args))
          | None -> fail lineno (Printf.sprintf "unknown directive %S" w)))
    lines;
  if !n_line = 0 then fail 0 "missing n line";
  let edge_lines, triples = Array.split (Array.of_list (List.rev !edges)) in
  let g =
    try Graph.make_arr ~n:!n triples
    with Invalid_argument _ as e -> begin
      (* [n] is positive by now, so an edge is at fault. *)
      match Graph.first_invalid_edge ~n:!n triples with
      | Some (i, msg) -> fail edge_lines.(i) msg
      | None -> raise e
    end
  in
  let weights = Array.to_list (Array.map (fun (_, _, w) -> w) triples) in
  (match Graph.over_weight_bound weights with
  | Some i ->
      fail edge_lines.(i)
        (Printf.sprintf "total edge weight exceeds the bound 2^50 = %d"
           Graph.max_total_weight)
  | None -> ());
  let first_line = List.fold_left (fun acc (l, _, _) -> min acc l) max_int in
  match !labels, !requests with
  | [], [] -> Plain g
  | (_ :: _ as ls), (_ :: _ as rs) ->
      fail (max (first_line ls) (first_line rs))
        "cannot mix label and request lines"
  | ls, [] ->
      let arr = Array.make !n (-1) and labelled_at = Array.make !n 0 in
      List.iter
        (fun (lineno, v, l) ->
          if v < 0 || v >= !n then fail lineno "label node out of range";
          if l < 0 then fail lineno "labels must be non-negative";
          if labelled_at.(v) > 0 then
            fail lineno
              (Printf.sprintf "node %d already labelled at line %d" v
                 labelled_at.(v));
          labelled_at.(v) <- lineno;
          arr.(v) <- l)
        (List.rev ls);
      Ic (Instance.make_ic g arr)
  | [], rs ->
      List.iter
        (fun (lineno, u, v) ->
          if u < 0 || u >= !n || v < 0 || v >= !n then
            fail lineno "request node out of range")
        (List.rev rs);
      let arr = Array.make !n [] in
      List.iter (fun (_, u, v) -> arr.(u) <- v :: arr.(u)) rs;
      Cr (Instance.make_cr g arr)

let parse_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse_string text

let print_graph ppf g =
  Format.fprintf ppf "n %d@." (Graph.n g);
  Array.iter
    (fun (e : Graph.edge) -> Format.fprintf ppf "edge %d %d %d@." e.u e.v e.w)
    (Graph.edges g)

let print_ic ppf (inst : Instance.ic) =
  print_graph ppf inst.Instance.graph;
  Array.iteri
    (fun v l -> if l >= 0 then Format.fprintf ppf "label %d %d@." v l)
    inst.Instance.labels

let roundtrip_ic inst =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  print_ic ppf inst;
  Format.pp_print_flush ppf ();
  match parse_string (Buffer.contents buf) with
  | Ic x -> x
  | Cr _ | Plain _ -> invalid_arg "Io.roundtrip_ic: shape changed"

let parse_solution g text =
  let selected = Array.make (Graph.m g) false in
  let n = Graph.n g in
  let error = ref None in
  List.iteri
    (fun i line ->
      if !error = None then begin
        let fail msg = error := Some (i + 1, msg) in
        match words_of line with
        | [] -> ()
        | [ u; v ] -> begin
            match int_of_string_opt u, int_of_string_opt v with
            | Some u, Some v when u >= 0 && u < n && v >= 0 && v < n -> begin
                match Graph.find_edge g u v with
                | Some eid -> selected.(eid) <- true
                | None -> fail (Printf.sprintf "no edge %d-%d" u v)
              end
            | _ -> fail "bad endpoints"
          end
        | _ -> fail "expected \"u v\""
      end)
    (String.split_on_char '\n' text);
  match !error with Some e -> Error e | None -> Ok selected

let print_solution ppf g selected =
  Array.iter
    (fun (e : Graph.edge) ->
      if selected.(e.id) then Format.fprintf ppf "%d %d@." e.u e.v)
    (Graph.edges g)
