type writer = {
  write : string -> unit;
  write_buffer : Buffer.t -> unit;
  flush : unit -> unit;
  fsync : unit -> unit;
  close : unit -> unit;
}

type t = {
  name : string;
  exists : string -> bool;
  size : string -> int;
  read_file : string -> string;
  open_writer : append:bool -> string -> writer;
  rename : string -> string -> unit;
  unlink : string -> unit;
  truncate : string -> int -> unit;
  fsync_dir : string -> unit;
}

exception Crash

(* --- retry ---------------------------------------------------------------- *)

let default_backoff attempt =
  try Unix.sleepf (0.002 *. float_of_int (1 lsl min (attempt - 1) 6))
  with Unix.Unix_error _ -> ()

let with_retries ?(attempts = 5) ?(backoff = default_backoff) f =
  let rec go n =
    try f ()
    with Errors.Io_error _ when n + 1 < attempts ->
      backoff (n + 1);
      go (n + 1)
  in
  go 0

(* --- CRC-32 --------------------------------------------------------------- *)

module Crc32 = struct
  (* Native ints throughout: a CRC fits in 32 bits, so nothing is boxed. *)
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  let sub ?(crc = 0) s pos len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Storage.Crc32.sub";
    let c = ref (crc lxor 0xFFFF_FFFF) in
    for i = pos to pos + len - 1 do
      let byte = Char.code (String.unsafe_get s i) in
      c := Array.unsafe_get table ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFF_FFFF

  let string ?crc s = sub ?crc s 0 (String.length s)
  let to_hex c = Printf.sprintf "%08x" c
end

(* --- the real filesystem -------------------------------------------------- *)

let unix_fsync_oc oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let unix =
  {
    name = "unix";
    exists = Sys.file_exists;
    size =
      (fun path ->
        match Unix.stat path with
        | { Unix.st_size; _ } -> st_size
        | exception Unix.Unix_error _ -> 0);
    read_file =
      (fun path -> In_channel.with_open_bin path In_channel.input_all);
    open_writer =
      (fun ~append path ->
        let flags =
          Open_wronly :: Open_creat :: Open_binary
          :: (if append then [ Open_append ] else [ Open_trunc ])
        in
        let oc = open_out_gen flags 0o644 path in
        {
          write = (fun s -> output_string oc s);
          write_buffer = (fun b -> Buffer.output_buffer oc b);
          flush = (fun () -> flush oc);
          fsync = (fun () -> unix_fsync_oc oc);
          close = (fun () -> close_out_noerr oc);
        });
    rename = Sys.rename;
    unlink = (fun path -> if Sys.file_exists path then Sys.remove path);
    truncate = Unix.truncate;
    fsync_dir =
      (fun path ->
        (* Not every filesystem lets you fsync a directory fd; durability of
           the rename is best effort there, and failure is not an error the
           caller can act on. *)
        match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
        | fd ->
          (try Unix.fsync fd with Unix.Unix_error _ -> ());
          Unix.close fd
        | exception Unix.Unix_error _ -> ());
  }

(* --- the fault-injecting in-memory filesystem ----------------------------- *)

module Mem = struct
  type file = { mutable durable : string; pending : Buffer.t }

  type fs = {
    table : (string, file) Hashtbl.t;
    cache : bool;
    mutable crash_bytes : int option;
    mutable crash_ops : int option;
    mutable crash_reads : int option;
    mutable transient : int;
    mutable crashed : bool;
    mutable n_fsyncs : int;
    mutable n_ops : int;
  }

  let create ?(cache = false) () =
    {
      table = Hashtbl.create 8;
      cache;
      crash_bytes = None;
      crash_ops = None;
      crash_reads = None;
      transient = 0;
      crashed = false;
      n_fsyncs = 0;
      n_ops = 0;
    }

  let crash_after_bytes fs n = fs.crash_bytes <- Some n
  let crash_after_ops fs n = fs.crash_ops <- Some n
  let crash_after_reads fs n = fs.crash_reads <- Some n
  let fail_writes fs n = fs.transient <- n

  let clear_faults fs =
    fs.crash_bytes <- None;
    fs.crash_ops <- None;
    fs.crash_reads <- None;
    fs.transient <- 0;
    fs.crashed <- false

  let fsyncs fs = fs.n_fsyncs
  let ops fs = fs.n_ops

  (* Every mutating operation passes through here: it honours a pending
     crash-after-ops budget and keeps raising once crashed. *)
  let op fs =
    if fs.crashed then raise Crash;
    (match fs.crash_ops with
    | Some n when n <= 0 ->
      fs.crashed <- true;
      raise Crash
    | Some n -> fs.crash_ops <- Some (n - 1)
    | None -> ());
    fs.n_ops <- fs.n_ops + 1

  let promote f =
    f.durable <- f.durable ^ Buffer.contents f.pending;
    Buffer.clear f.pending

  let find fs path = Hashtbl.find_opt fs.table path

  let get fs path =
    match find fs path with
    | Some f -> f
    | None ->
      let f = { durable = ""; pending = Buffer.create 64 } in
      Hashtbl.replace fs.table path f;
      f

  let live f = f.durable ^ Buffer.contents f.pending

  let contents fs path = match find fs path with Some f -> live f | None -> ""
  let durable fs path = match find fs path with Some f -> f.durable | None -> ""

  let set_file fs path s =
    let f = get fs path in
    f.durable <- s;
    Buffer.clear f.pending

  let files fs =
    Hashtbl.fold (fun k _ acc -> k :: acc) fs.table [] |> List.sort compare

  let reboot fs =
    let fs' = create ~cache:fs.cache () in
    Hashtbl.iter (fun path f -> set_file fs' path f.durable) fs.table;
    fs'

  let append fs f s =
    Buffer.add_string f.pending s;
    if not fs.cache then promote f

  let write fs f s =
    if fs.crashed then raise Crash;
    if fs.transient > 0 then begin
      fs.transient <- fs.transient - 1;
      raise (Errors.Io_error "injected transient write failure")
    end;
    op fs;
    match fs.crash_bytes with
    | Some budget when String.length s > budget ->
      (* the crash tears the write in flight: only a prefix lands *)
      append fs f (String.sub s 0 budget);
      fs.crash_bytes <- Some 0;
      fs.crashed <- true;
      raise Crash
    | Some budget ->
      fs.crash_bytes <- Some (budget - String.length s);
      append fs f s
    | None -> append fs f s

  let storage fs =
    {
      name = "mem";
      exists = (fun path -> Hashtbl.mem fs.table path);
      size = (fun path -> String.length (contents fs path));
      read_file =
        (fun path ->
          (* reads honour their own crash budget: recovery is a read-only
             pipeline, so interrupting it needs a read-side fault.  The
             budget stays exhausted (reads keep crashing) until
             [clear_faults]. *)
          (match fs.crash_reads with
          | Some n when n <= 0 ->
            fs.crashed <- true;
            raise Crash
          | Some n -> fs.crash_reads <- Some (n - 1)
          | None -> ());
          match find fs path with
          | Some f -> live f
          | None -> raise (Sys_error (path ^ ": No such file or directory")));
      open_writer =
        (fun ~append:app path ->
          op fs;
          let f = get fs path in
          if not app then begin
            f.durable <- "";
            Buffer.clear f.pending
          end;
          {
            write = (fun s -> write fs f s);
            write_buffer = (fun b -> write fs f (Buffer.contents b));
            flush = (fun () -> ());
            fsync =
              (fun () ->
                op fs;
                promote f;
                fs.n_fsyncs <- fs.n_fsyncs + 1);
            close = (fun () -> ());
          });
      rename =
        (fun src dst ->
          op fs;
          match find fs src with
          | None -> raise (Sys_error (src ^ ": No such file or directory"))
          | Some f ->
            Hashtbl.remove fs.table src;
            Hashtbl.replace fs.table dst f);
      unlink =
        (fun path ->
          op fs;
          Hashtbl.remove fs.table path);
      truncate =
        (fun path n ->
          op fs;
          let f = get fs path in
          let s = live f in
          f.durable <- String.sub s 0 (min n (String.length s));
          Buffer.clear f.pending);
      fsync_dir = (fun _ -> op fs);
    }
end
