(* Drafts are bounded in practice (a handful of live faults over one oracle
   config), but a long sweep over many topologies could still accumulate;
   the shared table caps itself rather than grow without bound. It caps the
   bytes of its draft texts as well as their number (see memo.mli). *)
module Table =
  Netcore.Memo_table.Make_weighted
    (struct
      type t = Batfish.Parse_check.dialect * string

      let equal = ( = )
      let hash = Hashtbl.hash
    end)
    (struct
      type t = Policy.Config_ir.t * Netcore.Diag.t list

      let max_entries = 16_384
      let max_weight = 32 * 1024 * 1024
      let weight (_, text) = String.length text
    end)

type stats = Netcore.Memo_table.stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
}

let check_result dialect text ~parse = Table.find_or_compute (dialect, text) parse

let check dialect text =
  Table.memo (dialect, text) (fun () -> Batfish.Parse_check.check dialect text)

let stats = Table.stats
let hit_rate = Netcore.Memo_table.hit_rate
let reset = Table.reset
let reset_stats = Table.reset_stats

type scope = Table.scope

let scope = Table.scope
let scope_stats = Table.scope_stats
