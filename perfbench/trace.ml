(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code, around calls into the
   program's public functions. Each domain (driver, pool workers, server
   threads' domain) appends to its own buffer, so recording takes no lock;
   the buffers are merged when the run ends. Minor words are read with
   [Gc.minor_words] on the domain that runs the span, which is the only
   place the OCaml 5 per-domain counter means anything. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : float;
  t1 : float;
  words : float;  (** minor words allocated by this domain inside the span *)
  arg : int;  (** a count attached by the caller (VM steps for [exec]) *)
  tag : string;  (** the kernel it ran on, where the caller knows it *)
}

let now = Unix.gettimeofday
let next_id = Atomic.make 1

(* One buffer per domain. Its lock is only contended by systhreads sharing
   the domain (client threads, an in-process fleet worker). *)
type buffer = { lock : Mutex.t; mutable spans : span list }

let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let buffer =
  Domain.DLS.new_key (fun () ->
      let b = { lock = Mutex.create (); spans = [] } in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let fresh_id () = Atomic.fetch_and_add next_id 1

let push s =
  let b = Domain.DLS.get buffer in
  Mutex.protect b.lock (fun () -> b.spans <- s :: b.spans)

(* Record a finished interval measured by the caller. *)
let add ?(id = fresh_id ()) ?(arg = 0) ?(words = 0.0) ?(tag = "") ~parent name t0 t1 =
  push { id; parent; name; t0; t1; words; arg; tag }

(* [with_span ~parent name f] runs [f id] inside a span; the span is
   recorded whether [f] returns or raises. *)
let with_span ?(arg = fun () -> 0) ?(tag = "") ~parent name f =
  let id = fresh_id () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    push { id; parent; name; t0; t1; words = Gc.minor_words () -. w0; arg = arg (); tag }
  in
  match f id with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Every span recorded so far, oldest first, and an emptied recorder. *)
let drain () =
  Mutex.protect registry_lock (fun () ->
      let all =
        List.concat_map
          (fun b ->
            Mutex.protect b.lock (fun () ->
                let l = b.spans in
                b.spans <- [];
                l))
          !registry
      in
      List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) all)

let duration s = s.t1 -. s.t0

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of each span: its duration minus the part of it covered by its
   children. Returned as (span, self seconds). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0\":%.6f,\"t1\":%.6f,\"words\":%.0f,\"arg\":%d,\"tag\":%S}\n"
        s.id s.parent s.name s.t0 s.t1 s.words s.arg s.tag)
    spans;
  close_out oc
