(* Child processes and the Linux /proc counters the benchmark reads. *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

(* USER_HZ: /proc reports CPU times in these ticks (100 on Linux). *)
let clock_ticks = 100.

(* User + system CPU seconds of a process, all threads included. *)
let cpu_seconds pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name start at field 3 *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. clock_ticks

(* Machine-wide (steal, total) jiffies from the first line of /proc/stat. *)
let steal_total () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  let nums =
    List.filter_map int_of_string_opt (String.split_on_char ' ' line)
  in
  let total = List.fold_left ( + ) 0 nums in
  let steal = match List.nth_opt nums 7 with Some s -> s | None -> 0 in
  (steal, total)

let steal_share (s0, t0) (s1, t1) =
  if t1 = t0 then 0. else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(* Peak resident set of a process (VmHWM), in MiB. *)
let rss_peak_mb pid =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
  | None -> nan
  | Some l ->
    let kb =
      List.find_map int_of_string_opt
        (String.split_on_char ' ' (String.sub l 6 (String.length l - 6)))
    in
    float_of_int (Option.value kb ~default:0) /. 1024.

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

(* A child with its stdin and stdout on pipes.  Closing [stdin_w] asks a
   benchmark server to exit; [kill] does not ask. *)
type child = { pid : int; stdout_r : in_channel; stdin_w : Unix.file_descr }

let spawn prog args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; stdout_r = Unix.in_channel_of_descr out_r; stdin_w = in_w }

let rec waitpid pid =
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* SIGKILL and reap. *)
let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  waitpid c.pid;
  (try Unix.close c.stdin_w with Unix.Unix_error _ -> ());
  close_in_noerr c.stdout_r
