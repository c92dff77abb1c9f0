(* NEGATIVE FIXTURE — CONGEST width violations for the typed
   congest-width rule (test_lint scans this library's .cmt).  None of
   these functions is ever called: [Pack.layout [40; 40]] would raise
   [Invalid_argument] at runtime, but the point is that the lint proves
   it over-wide *statically*.  Do not "fix" and do not link outside the
   test binary. *)

module Pack = Dsf_util.Pack
module Sim = Dsf_congest.Sim

(* 40 + 40 = 80 bits > the 62-bit immediate-int ceiling. *)
let too_wide () = Pack.layout [ 40; 40 ]

(* Width is an arbitrary runtime value: the checker cannot bound it, and
   an unverifiable layout is itself a finding. *)
let unverifiable w = Pack.layout [ w; 4 ]

(* Declared per-message cost of 200 bits: not O(log n)-representable and
   over the 62-bit word besides. *)
let chatty : (int, int) Sim.flat_protocol =
  {
    fp_init = (fun _ -> 0);
    fp_step = (fun _ ~round:_ st ~inbox:_ ~emit:_ -> st);
    fp_is_done = (fun _ -> true);
    fp_msg_bits = (fun _ -> 200);
  }
