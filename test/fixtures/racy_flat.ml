(* NEGATIVE FIXTURE — deliberately racy flat protocol.
   This is the seeded non-local write the typed domain-race rule must
   flag (test_lint scans this library's .cmt) and the runtime node-locality
   sanitizer must abort on (test_sanitizer runs it under
   [Sim.run_flat] with [env.sanitize]).  Do not "fix" it and do not link it
   outside the test binary.

   Two distinct violations live in [fp_step]:
   - [incr counter]: mutation of a toplevel ref captured by the step —
     shared state across every node;
   - [other.x <- ...] where [other = cells.((v + 1) mod n)]: indexing the
     captured per-node storage with a key that is *not* the stepping
     node's own id, i.e. writing a neighbor's slot.  (Writing
     [cells.(view.node)] would be the sanctioned own-slot idiom.)

   [fp_init] aliases node [v]'s state to [cells.(v)], which the static
   pass cannot see as an escape — that is exactly the gap the dynamic
   sanitizer covers: node 0's step mutates [cells.(1)] while node 1 sits
   idle, so node 1's state hash moves between barriers and the engine
   raises [Sim.Sanitizer_violation { sv_kind = "idle-state-write"; _ }]. *)

module Sim = Dsf_congest.Sim

type cell = { mutable x : int }

let counter = ref 0

(* Node 0 starts not-done and steps once; everyone else is born done and,
   with no mail ever sent, is never stepped (a node steps iff it has mail
   or is not done).  The single step pushes node 0 to done without
   sending mail, so the unsanitized run terminates after one round. *)
let racy_protocol ~n : (cell, int) Sim.flat_protocol =
  let cells = Array.init n (fun i -> { x = (if i = 0 then 0 else 1) }) in
  {
    fp_init = (fun view -> cells.(view.Sim.node));
    fp_step =
      (fun view ~round:_ st ~inbox:_ ~emit:_ ->
        incr counter;
        let v = view.Sim.node in
        let other = cells.((v + 1) mod n) in
        other.x <- other.x + 1;
        st.x <- st.x + 2;
        st);
    fp_is_done = (fun st -> st.x > 0);
    fp_msg_bits = (fun _ -> 1);
  }
