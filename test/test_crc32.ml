(* The CRC-32 table under concurrent first use. This is its own test
   executable so that its domains are the first code in the process to
   touch the table: a table built on first use ([lazy]) raised
   [CamlinternalLazy.Undefined] in any domain that forced it while another
   domain was still building it, as pooled workers making their first
   journal appends did. *)

let test_concurrent_first_use () =
  let n = 4 in
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < n do
      Domain.cpu_relax ()
    done;
    Durable.Crc32.digest "123456789"
  in
  List.init n (fun _ -> Domain.spawn worker)
  |> List.iter (fun d ->
         Alcotest.(check int) "check value" 0xCBF43926 (Domain.join d))

let () =
  Alcotest.run "crc32"
    [
      ( "crc32",
        [
          Alcotest.test_case "first use from concurrent domains" `Quick
            test_concurrent_first_use;
        ] );
    ]
