module Prng = Pk_util.Prng

exception Injected of string

type schedule = Every_nth of int | Probability of float | One_shot of int

type site_state = {
  mutable sched : schedule option;
  mutable hit_count : int;
  mutable injected : int;
}

(* Single global registry: fault points are static call sites, and the
   whole repo is single-threaded.  [active] is the one-load fast path
   checked, inline, by every [point]. *)
let table : (string, site_state) Hashtbl.t = Hashtbl.create 32
let active = ref false
let paused = ref false
let rng = ref (Prng.create 0L)
let unwind = ref true

let state_of site =
  match Hashtbl.find_opt table site with
  | Some s -> s
  | None ->
      let s = { sched = None; hit_count = 0; injected = 0 } in
      Hashtbl.add table site s;
      s

let refresh_active () =
  active :=
    Hashtbl.fold (fun _ s acc -> acc || Option.is_some s.sched) table false && not !paused

let arm site sched =
  (match sched with
  | Every_nth n when n < 1 -> invalid_arg "Fault.arm: Every_nth needs n >= 1"
  | One_shot k when k < 1 -> invalid_arg "Fault.arm: One_shot needs k >= 1"
  | Probability p when not (p >= 0.0 && p <= 1.0) ->
      invalid_arg "Fault.arm: Probability needs p in [0, 1]"
  | _ -> ());
  let s = state_of site in
  s.sched <- Some sched;
  s.hit_count <- 0;
  refresh_active ()

let disarm site =
  (match Hashtbl.find_opt table site with Some s -> s.sched <- None | None -> ());
  refresh_active ()

let disarm_all () =
  Hashtbl.iter (fun _ s -> s.sched <- None) table;
  refresh_active ()

let reset ?(seed = 0) () =
  Hashtbl.reset table;
  rng := Prng.create (Int64.of_int seed);
  paused := false;
  active := false

let pause f =
  let saved = !paused in
  paused := true;
  refresh_active ();
  Fun.protect
    ~finally:(fun () ->
      paused := saved;
      refresh_active ())
    f

let armed () = !active

(* The armed body, out of line: it allocates (site-state records,
   float draws) and only runs during fault campaigns. *)
let hit site =
  let s = state_of site in
  s.hit_count <- s.hit_count + 1;
  match s.sched with
  | None -> ()
  | Some sched ->
      let fire =
        match sched with
        | Every_nth n -> s.hit_count mod n = 0
        | Probability p -> Prng.float !rng 1.0 < p
        | One_shot k -> s.hit_count = k
      in
      if fire then begin
        s.injected <- s.injected + 1;
        (match sched with
        | One_shot _ ->
            s.sched <- None;
            refresh_active ()
        | Every_nth _ | Probability _ -> ());
        raise (Injected site)
      end

(* Inlined at every call site: with no site armed, one load and one
   branch. *)
let[@inline] point site = if !active then (hit site [@pklint.cold])

let hits site = match Hashtbl.find_opt table site with Some s -> s.hit_count | None -> 0
let injections site = match Hashtbl.find_opt table site with Some s -> s.injected | None -> 0
let total_injections () = Hashtbl.fold (fun _ s acc -> acc + s.injected) table 0

let sites () =
  Hashtbl.fold (fun name s acc -> (name, s.hit_count, s.injected) :: acc) table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let unwind_enabled () = !unwind
let set_unwind b = unwind := b
