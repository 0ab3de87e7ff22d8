(* Table-driven IEEE CRC-32 (polynomial 0xEDB88320, reflected). Fits in
   OCaml's native int on 64-bit: every intermediate stays below 2^32. *)

(* Built at module initialisation, not on first use: a [lazy] forced by
   two domains at once raises [CamlinternalLazy.Undefined] in one of them
   under OCaml 5, and pooled workers append to journals concurrently. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update register s =
  let crc = ref register in
  String.iter
    (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
    s;
  !crc

let digest s = update 0xFFFFFFFF s lxor 0xFFFFFFFF
