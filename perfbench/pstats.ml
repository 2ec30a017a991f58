(* Summary statistics over samples.  Percentiles are nearest-rank over
   the sorted samples, so a p99 of n samples has n/100 samples beyond
   it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))

let median xs = percentile xs 50.

(* The mean of the samples ranked from the [lo]th to the [hi]th
   percentile (nearest ranks). *)
let band_mean xs lo hi =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank p = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
    let lo = rank lo and hi = rank hi in
    let s = ref 0. in
    for i = lo to hi do
      s := !s +. a.(i)
    done;
    !s /. float_of_int (hi - lo + 1)

(* The median as the mean of the samples from the 40th to the 60th
   percentile: a query mix is a mixture of a few query shapes, and where
   the middle rank falls in a gap between two shapes' latencies the
   single median sample jumps across the gap from run to run. *)
let p50_smooth xs = band_mean xs 0.40 0.60

(* The 99th percentile as the mean of the samples from the 98.5th to
   the 99.5th percentile (nearest ranks): a smoothed order statistic,
   far less jumpy than the single nearest-rank sample where the tail is
   sparse.  The same estimator at every sample count. *)
let p99_smooth xs = band_mean xs 0.985 0.995

(* [by_window k f xs]: the median of [f] over [k] consecutive stretches
   of [xs] (in sample order) holding equal shares of the samples.  A
   stall of the shared machine that hits one stretch moves it far less
   than it moves [f xs]. *)
let by_window k f xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n < k then f xs
  else
    median
      (List.init k (fun i ->
           let lo = i * n / k and hi = (i + 1) * n / k in
           f (Array.to_list (Array.sub a lo (hi - lo)))))

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

let ratio num den = if den = 0. then 0. else num /. den

(* Samples beyond the nearest-rank p99.  A run that leaves fewer than
   [min_beyond_p99] is flagged: its p99 rests on too thin a tail. *)
let min_beyond_p99 = 10

let beyond_p99 n = n - int_of_float (Float.ceil (0.99 *. float_of_int n))

(* A growable sample buffer shared between the harness's threads. *)
type buf = { lock : Mutex.t; mutable items : float list }

let buf () = { lock = Mutex.create (); items = [] }

let add b x =
  Mutex.lock b.lock;
  b.items <- x :: b.items;
  Mutex.unlock b.lock

let items b =
  Mutex.lock b.lock;
  let xs = b.items in
  Mutex.unlock b.lock;
  xs

let clear b =
  Mutex.lock b.lock;
  b.items <- [];
  Mutex.unlock b.lock
