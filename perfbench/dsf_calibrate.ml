(* Host-speed probe for perfbench/run.py.

   A fixed, Stdlib-only workload that links none of the repo's libraries, so
   no change to the solver can change its speed: a seeded array sort, a hash
   table built from it and a stream of short-lived lists looked up in it,
   which mixes allocation, pointer chasing and integer work as a solve does.
   run.py runs it right before every untraced CLI call, times it as a whole
   process, and divides the call's phase times by it, so that a neighbour
   slowing the shared host slows both and cancels out.  It prints a checksum
   that run.py checks.

     dsf_calibrate.exe *)

let n = 1 lsl 14

let () =
  let state = ref 0x2545F49 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let a = Array.init n (fun _ -> next ()) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i x -> Hashtbl.replace h (x land 0xFFFF) i) a;
  let sum = ref 0 in
  for _ = 1 to 8 do
    let keys = List.init 4096 (fun _ -> next () land 0xFFFF) in
    List.iter
      (fun k -> match Hashtbl.find_opt h k with Some v -> sum := !sum + v | None -> ())
      keys
  done;
  Printf.printf "checksum %d\n" ((!sum + Hashtbl.length h + a.(n / 2)) land 0xFFFFFF)
