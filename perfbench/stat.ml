(* Order statistics over samples. *)

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it.  [nan] on no samples. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)
  end

let median samples = percentile samples 50.

let sum = Array.fold_left ( +. ) 0.

let mean samples =
  if samples = [||] then nan else sum samples /. float_of_int (Array.length samples)

(* A growable float buffer, so hot loops record samples without lists. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
