open Dsf_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_deterministic () =
  let a = Rng.split (Rng.create 7) 3 and b = Rng.split (Rng.create 7) 3 in
  for _ = 1 to 50 do
    check Alcotest.int "same split stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let a = Rng.split parent 1 and b = Rng.split parent 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" false (xs = ys)

let test_rng_int_in_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "in range" true (x >= 5 && x <= 9)
  done

let test_rng_permutation () =
  let rng = Rng.create 3 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample () =
  let rng = Rng.create 4 in
  let s = Rng.sample_without_replacement rng 10 1000 in
  check Alcotest.int "size" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 9 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  Array.iter
    (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 1000))
    s

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement yields distinct values"
    ~count:50
    QCheck.(pair (int_range 0 30) small_int)
    (fun (m, seed) ->
      let rng = Rng.create seed in
      let n = max m 30 in
      let s = Rng.sample_without_replacement rng m n in
      let sorted = Array.copy s in
      Array.sort compare sorted;
      let distinct = ref true in
      for i = 1 to m - 1 do
        if sorted.(i) = sorted.(i - 1) then distinct := false
      done;
      !distinct && Array.length s = m)

(* --------------------------------------------------------------- Union_find *)

let test_uf_basic () =
  let uf = Union_find.create 10 in
  check Alcotest.int "initial sets" 10 (Union_find.n_sets uf);
  Alcotest.(check bool) "union new" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union dup" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 2);
  check Alcotest.int "sets after union" 9 (Union_find.n_sets uf);
  check Alcotest.int "size" 2 (Union_find.size uf 0)

let test_uf_transitive () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  Alcotest.(check bool) "transitively same" true (Union_find.same uf 0 3);
  check Alcotest.int "size" 4 (Union_find.size uf 3)

let test_uf_copy_isolated () =
  let uf = Union_find.create 4 in
  ignore (Union_find.union uf 0 1);
  let c = Union_find.copy uf in
  ignore (Union_find.union c 2 3);
  Alcotest.(check bool) "copy unioned" true (Union_find.same c 2 3);
  Alcotest.(check bool) "original untouched" false (Union_find.same uf 2 3)

let test_uf_groups () =
  let uf = Union_find.create 5 in
  ignore (Union_find.union uf 0 4);
  ignore (Union_find.union uf 1 2);
  let groups = Union_find.groups uf in
  check Alcotest.int "group count" 3 (Hashtbl.length groups);
  let sizes =
    Hashtbl.fold (fun _ members acc -> List.length members :: acc) groups []
    |> List.sort compare
  in
  check Alcotest.(list int) "group sizes" [ 1; 2; 2 ] sizes

let prop_uf_nsets =
  QCheck.Test.make ~name:"n_sets = n - successful unions" ~count:100
    QCheck.(pair (int_range 2 40) (small_list (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let uf = Union_find.create n in
      let successes =
        List.fold_left
          (fun acc (a, b) ->
            let a = a mod n and b = b mod n in
            if Union_find.union uf a b then acc + 1 else acc)
          0 pairs
      in
      Union_find.n_sets uf = n - successes)

(* ------------------------------------------------------------------ Heap *)

let test_heap_sorts () =
  let h = Heap.of_list ~cmp:compare [ 5; 3; 8; 1; 9; 2 ] in
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  check Alcotest.(list int) "heap sort" [ 1; 2; 3; 5; 8; 9 ] (drain [])

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  check Alcotest.(option int) "pop empty" None (Heap.pop h);
  check Alcotest.(option int) "peek empty" None (Heap.peek h)

let test_heap_peek () =
  let h = Heap.create ~cmp:compare in
  Heap.push h 4;
  Heap.push h 2;
  check Alcotest.(option int) "peek min" (Some 2) (Heap.peek h);
  check Alcotest.int "size unchanged by peek" 2 (Heap.size h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:100
    QCheck.(list int)
    (fun xs ->
      let h = Heap.of_list ~cmp:compare xs in
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* --------------------------------------------------------------- Bitsize *)

let test_bitsize () =
  check Alcotest.int "bits 0" 1 (Bitsize.int_bits 0);
  check Alcotest.int "bits 1" 1 (Bitsize.int_bits 1);
  check Alcotest.int "bits 2" 2 (Bitsize.int_bits 2);
  check Alcotest.int "bits 255" 8 (Bitsize.int_bits 255);
  check Alcotest.int "bits 256" 9 (Bitsize.int_bits 256);
  check Alcotest.int "id bits n=2" 1 (Bitsize.id_bits ~n:2);
  check Alcotest.int "id bits n=1024" 10 (Bitsize.id_bits ~n:1024)

(* The bit-by-bit loop [Bitsize.int_bits] used to run: the oracle for its
   shift-test replacement. *)
let int_bits_loop x =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  max 1 (go 0 x)

(* 0, max_int and 2^k - 1, 2^k, 2^k + 1 for k = 0..61. *)
let int_bits_edges =
  0 :: max_int
  :: List.concat_map
       (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
       (List.init 62 Fun.id)

let test_int_bits_edges () =
  List.iter
    (fun x ->
      check Alcotest.int (Printf.sprintf "bits %d" x) (int_bits_loop x)
        (Bitsize.int_bits x))
    int_bits_edges;
  List.iter
    (fun x ->
      match Bitsize.int_bits x with
      | exception Assert_failure _ -> ()
      | b -> Alcotest.failf "int_bits %d = %d, expected an assertion" x b)
    [ -1; min_int ]

let prop_int_bits_loop =
  QCheck.Test.make ~name:"int_bits = bit loop" ~count:1000
    QCheck.(oneof [ oneofl int_bits_edges; int_bound max_int ])
    (fun x -> Bitsize.int_bits x = int_bits_loop x)

let test_budget_logarithmic () =
  let b1 = Bitsize.congest_budget ~n:16 in
  let b2 = Bitsize.congest_budget ~n:256 in
  check Alcotest.int "budget doubles when log doubles" (2 * b1) b2

(* ----------------------------------------------------------------- Stats *)

let test_stats_mean_median () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check (Alcotest.float 1e-9) "median even" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ]);
  check (Alcotest.float 1e-9) "median odd" 3. (Stats.median [ 5.; 3.; 1. ])

let test_stats_linear_fit () =
  let slope, intercept =
    Stats.linear_fit [ 1., 3.; 2., 5.; 3., 7.; 4., 9. ]
  in
  check (Alcotest.float 1e-9) "slope" 2. slope;
  check (Alcotest.float 1e-9) "intercept" 1. intercept

let test_stats_loglog () =
  (* y = x^2 exactly -> slope 2 *)
  let pts = List.init 5 (fun i ->
      let x = float_of_int (i + 1) in
      x, x *. x)
  in
  check (Alcotest.float 1e-9) "quadratic exponent" 2. (Stats.loglog_slope pts)

let test_stats_ratio_summary () =
  let lo, mean, hi = Stats.ratio_summary [ 2., 1.; 3., 1.; 4., 2. ] in
  check (Alcotest.float 1e-9) "lo" 2. lo;
  check (Alcotest.float 1e-9) "hi" 3. hi;
  Alcotest.(check bool) "mean between" true (mean >= lo && mean <= hi)

(* ----------------------------------------------------------------- Pack *)

let invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: Invalid_argument expected" name

let test_pack_exact_62 () =
  (* The widest legal layout: exactly 62 bits.  The packed word with every
     field saturated is still a non-negative immediate. *)
  (match Pack.layout [ 31; 31 ] with
  | [| a; b |] ->
      check Alcotest.int "total width" 62 (Pack.total_width [| a; b |]);
      let top = (1 lsl 31) - 1 in
      let w = Pack.put b top (Pack.put a top 0) in
      Alcotest.(check bool) "saturated word non-negative" true (w >= 0);
      check Alcotest.int "field a round-trips" top (Pack.get a w);
      check Alcotest.int "field b round-trips" top (Pack.get b w)
  | _ -> Alcotest.fail "layout arity");
  (match Pack.layout [ 62 ] with
  | [| f |] ->
      check Alcotest.int "single 62-bit field" 62 (Pack.field_width f)
  | _ -> Alcotest.fail "layout arity")

let test_pack_overflow_rejected () =
  (* One bit over the word, in either shape, is a construction error. *)
  invalid "63-bit pair" (fun () -> Pack.layout [ 31; 32 ]);
  invalid "single 63-bit field" (fun () -> Pack.layout [ 63 ]);
  invalid "zero-width field" (fun () -> Pack.layout [ 0; 4 ]);
  invalid "empty layout" (fun () -> Pack.layout []);
  invalid "negative width_of_max" (fun () -> Pack.width_of_max (-1))

let test_pack_sentinel_roundtrip () =
  (* Negative ints live outside every packed domain, so -1 is free as an
     out-of-band sentinel (the flat BFS "unreached" state): writing it is
     rejected, and a sentinel-carrying variable round-trips untouched. *)
  match Pack.layout [ 1; 7; 8 ] with
  | [| flag; depth; parent |] ->
      Alcotest.(check bool) "-1 does not fit" false (Pack.fits depth (-1));
      invalid "put -1" (fun () -> Pack.put depth (-1) 0);
      invalid "set -1" (fun () -> Pack.set depth (-1) 0);
      let st = ref (-1) in
      (if !st >= 0 then st := Pack.put flag 1 !st);
      check Alcotest.int "sentinel survives the guarded path" (-1) !st;
      (* leaving the sentinel: a fresh word packs and unpacks exactly *)
      st := Pack.put parent 200 (Pack.put depth 100 (Pack.put flag 1 0));
      check Alcotest.int "flag" 1 (Pack.get flag !st);
      check Alcotest.int "depth" 100 (Pack.get depth !st);
      check Alcotest.int "parent" 200 (Pack.get parent !st);
      st := Pack.set depth 0 !st;
      check Alcotest.int "cleared depth" 0 (Pack.get depth !st);
      check Alcotest.int "parent untouched by set" 200 (Pack.get parent !st)
  | _ -> Alcotest.fail "layout arity"

let test_pack_edge_values () =
  match Pack.layout [ 4; 4 ] with
  | [| a; b |] ->
      Alcotest.(check bool) "0 fits" true (Pack.fits a 0);
      Alcotest.(check bool) "2^w-1 fits" true (Pack.fits a 15);
      Alcotest.(check bool) "2^w rejected" false (Pack.fits a 16);
      invalid "put 2^w" (fun () -> Pack.put a 16 0);
      check Alcotest.int "0 round-trips" 0 (Pack.get a (Pack.put a 0 0));
      check Alcotest.int "2^w-1 round-trips in the high field" 15
        (Pack.get b (Pack.put b 15 0));
      (* width_of_max edges: powers of two straddle a width boundary *)
      check Alcotest.int "width_of_max 0" 1 (Pack.width_of_max 0);
      check Alcotest.int "width_of_max 1" 1 (Pack.width_of_max 1);
      check Alcotest.int "width_of_max 2" 2 (Pack.width_of_max 2);
      check Alcotest.int "width_of_max 15" 4 (Pack.width_of_max 15);
      check Alcotest.int "width_of_max 16" 5 (Pack.width_of_max 16)
  | _ -> Alcotest.fail "layout arity"

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split deterministic" `Quick test_rng_split_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
        Alcotest.test_case "permutation" `Quick test_rng_permutation;
        Alcotest.test_case "sample without replacement" `Quick test_rng_sample;
        qtest prop_sample_distinct;
      ] );
    ( "util.union_find",
      [
        Alcotest.test_case "basic" `Quick test_uf_basic;
        Alcotest.test_case "transitive" `Quick test_uf_transitive;
        Alcotest.test_case "copy isolated" `Quick test_uf_copy_isolated;
        Alcotest.test_case "groups" `Quick test_uf_groups;
        qtest prop_uf_nsets;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "sorts" `Quick test_heap_sorts;
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "peek" `Quick test_heap_peek;
        qtest prop_heap_sorted;
      ] );
    ( "util.pack",
      [
        Alcotest.test_case "exact 62-bit layouts" `Quick test_pack_exact_62;
        Alcotest.test_case "overflow rejected" `Quick
          test_pack_overflow_rejected;
        Alcotest.test_case "-1 sentinel round-trip" `Quick
          test_pack_sentinel_roundtrip;
        Alcotest.test_case "edge values" `Quick test_pack_edge_values;
      ] );
    ( "util.bitsize",
      [
        Alcotest.test_case "int bits" `Quick test_bitsize;
        Alcotest.test_case "int bits at powers of two" `Quick
          test_int_bits_edges;
        qtest prop_int_bits_loop;
        Alcotest.test_case "budget logarithmic" `Quick test_budget_logarithmic;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean/median" `Quick test_stats_mean_median;
        Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
        Alcotest.test_case "loglog slope" `Quick test_stats_loglog;
        Alcotest.test_case "ratio summary" `Quick test_stats_ratio_summary;
      ] );
  ]
