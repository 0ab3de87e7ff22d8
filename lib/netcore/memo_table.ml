type stats = { hits : int; misses : int; entries : int; evictions : int }

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

module type S = sig
  type key
  type value

  val find_or_compute : key -> (unit -> (value, 'e) result) -> (value, 'e) result
  val memo : key -> (unit -> value) -> value
  val fold : (key -> value -> 'a -> 'a) -> 'a -> 'a
  val stats : unit -> stats
  val reset : unit -> unit
  val reset_stats : unit -> unit

  type scope

  val scope : unit -> scope
  val scope_stats : scope -> stats
end

module Make_weighted
    (K : Hashtbl.HashedType)
    (V : sig
      type t

      val max_entries : int
      val max_weight : int
      val weight : K.t -> int
    end) =
struct
  module H = Hashtbl.Make (K)

  type key = K.t
  type value = V.t

  let lock = Mutex.create ()
  let table : value H.t = H.create 64

  (* Insertion order of the live keys, oldest first — the eviction queue.
     An entry is only ever removed by eviction or [reset], so the queue and
     the table stay in lockstep (every queued key is live, every live key
     queued exactly once). *)
  let order : key Queue.t = Queue.create ()
  let hits = ref 0
  let misses = ref 0
  let evictions = ref 0

  (* The summed weight of the live keys. *)
  let weight = ref 0

  let evict_oldest () =
    match Queue.take_opt order with
    | None -> false
    | Some k ->
        H.remove table k;
        weight := !weight - V.weight k;
        incr evictions;
        true

  (* Make room for a key of weight [w]. A table full by count drops its
     oldest eighth of entries; a table full by weight drops its oldest
     entries until an eighth of the weight cap is free besides [w]. Batch
     size >= 1 so the insert that triggered it always fits by count. Caller
     holds [lock]. *)
  let make_room w =
    if H.length table >= V.max_entries then
      for _ = 1 to max 1 (V.max_entries / 8) do
        ignore (evict_oldest ())
      done;
    if !weight + w > V.max_weight then
      while !weight + w > V.max_weight - (V.max_weight / 8) && evict_oldest () do
        ()
      done

  let find_or_compute key compute =
    Mutex.lock lock;
    match H.find_opt table key with
    | Some v ->
        incr hits;
        Mutex.unlock lock;
        Ok v
    | None -> (
        incr misses;
        Mutex.unlock lock;
        match compute () with
        | Error _ as e -> e
        | Ok v ->
            Mutex.lock lock;
            if not (H.mem table key) then begin
              let w = V.weight key in
              make_room w;
              H.add table key v;
              Queue.push key order;
              weight := !weight + w
            end;
            Mutex.unlock lock;
            Ok v)

  let memo key compute =
    match find_or_compute key (fun () -> Ok (compute ())) with
    | Ok v -> v
    | Error (_ : unit) -> assert false

  let fold f init =
    Mutex.lock lock;
    let live = Queue.fold (fun acc k -> (k, H.find table k) :: acc) [] order in
    Mutex.unlock lock;
    List.fold_left (fun acc (k, v) -> f k v acc) init (List.rev live)

  let stats () =
    Mutex.lock lock;
    let s =
      { hits = !hits; misses = !misses; entries = H.length table; evictions = !evictions }
    in
    Mutex.unlock lock;
    s

  let reset () =
    Mutex.lock lock;
    H.reset table;
    Queue.clear order;
    weight := 0;
    hits := 0;
    misses := 0;
    evictions := 0;
    Mutex.unlock lock

  let reset_stats () =
    Mutex.lock lock;
    hits := 0;
    misses := 0;
    Mutex.unlock lock

  (* A scope is just the counter values at its creation; its stats are the
     deltas since. Scopes nest and overlap freely, and unlike [reset_stats]
     they cannot disturb a concurrent phase's accounting. *)
  type scope = { hits0 : int; misses0 : int }

  let scope () =
    let s = stats () in
    { hits0 = s.hits; misses0 = s.misses }

  let scope_stats sc =
    let s = stats () in
    { s with hits = s.hits - sc.hits0; misses = s.misses - sc.misses0 }
end

module Make
    (K : Hashtbl.HashedType)
    (V : sig
      type t

      val max_entries : int
    end) =
  Make_weighted (K)
    (struct
      include V

      let max_weight = max_int
      let weight _ = 0
    end)

let content_hash v = Hashtbl.hash (Marshal.to_string v [ Marshal.No_sharing ])
