(* The benchmark server: a Net.Server fronting the workload's pool.  It
   prints "READY <port>" once set-up is done and serves until its stdin
   closes (or it is killed). *)

let main spec ~seed ~dir =
  let pool, market = Spec.create_pool spec ~seed ~dir in
  Spec.write_manifest (Filename.concat dir "manifest") market;
  (* the generator checks every notification, so the outlet never sheds *)
  let server =
    Net.Server.create ~outlet_policy:(Block { max_wait_ms = 600_000 }) ~pool ()
  in
  Printf.printf "READY %d\n%!" (Net.Server.port server);
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  Net.Server.stop server;
  Sentinel.Shard_pool.stop pool
