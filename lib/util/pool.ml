exception Nested_use

(* [busy] is the one deliberately process-global value in the library: it
   makes the single parallel region exclusive and detects nested use.
   Everything else a region needs lives in [map_chunked]'s frame, so
   other modules can stay free of global mutable state. *)
[@@@lint.allow "global-state"]

let hard_cap = 8

let default_jobs () = max 1 (min (Domain.recommended_domain_count ()) hard_cap)

let busy = Atomic.make false

let map_chunked ~jobs f arr =
  let len = Array.length arr in
  if jobs <= 1 || len <= 1 then Array.map f arr
  else if not (Atomic.compare_and_set busy false true) then raise Nested_use
  else
    Fun.protect ~finally:(fun () -> Atomic.set busy false) @@ fun () ->
    (* Each index is written by the one domain that pulled it, and read
       only after every helper is joined. *)
    let results = Array.make len None in
    let next = Atomic.make 0 in
    let rec pull () =
      let i = Atomic.fetch_and_add next 1 in
      if i < len then begin
        (results.(i) <-
           (* Not swallowed: the failure is re-raised below, smallest
              index first. *)
           try Some (Ok (f arr.(i)))
           with e [@lint.allow "catch-all"] ->
             Some (Error (e, Printexc.get_raw_backtrace ())));
        pull ()
      end
    in
    (* The helpers live for this region only: joined before returning, so
       no idle domain outlives it (see pool.mli).  The calling domain
       pulls tasks too. *)
    let helpers =
      List.init (min jobs (min hard_cap len) - 1) (fun _ -> Domain.spawn pull)
    in
    pull ();
    List.iter Domain.join helpers;
    (* In index order, so the failure at the smallest index wins under any
       schedule. *)
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
