(** Streaming aggregate estimation with confidence bounds (online
    aggregation over morsel samples).

    The approximate-query path visits a file's morsels in a seeded random
    order and feeds each one's per-aggregate contribution here. The
    estimator maintains, per aggregate, a ratio-of-cluster-totals estimate
    with a CLT-style confidence half-width (finite-population corrected,
    since sampling is without replacement), and decides when the relative
    half-width of {e every} aggregate has fallen below the target [eps].

    The reported half-width is a running minimum over per-morsel
    checkpoints, so it is monotonically non-increasing in the fraction
    scanned — the property the statistical harness pins. DESIGN.md §11
    derives the estimator and discusses the envelope's coverage trade. *)

type kind = Count | Sum | Avg

type contrib = { c_sum : float; c_count : float }
(** One morsel's contribution for one aggregate, over the rows that
    survived the filter: [c_sum] is the sum of the aggregated expression's
    non-null values, [c_count] the number of them. COUNT uses [c_count]
    only; SUM uses [c_sum]; AVG uses both. *)

type band = {
  estimate : float;  (** current point estimate (NaN for AVG of no rows) *)
  half_width : float;  (** 95% confidence half-width (envelope); absolute *)
  relative : float;
      (** [half_width / |estimate|]; 0 when the half-width is exactly 0,
          +inf when the estimate is 0 or undefined *)
}

type t

val create :
  eps:float ->
  ?z:float ->
  ?min_morsels:int ->
  total_rows:int ->
  total_morsels:int ->
  kind list ->
  t
(** [eps] is the target relative half-width. [z] fixes the critical
    value; by default it is the two-sided 97.5% Student-t quantile at
    [n - 1] degrees of freedom (≈ 95% confidence, honest at the small
    cluster counts where stopping usually happens), decaying to the
    normal 1.96 past 30 morsels. [min_morsels] (default 16) is the floor
    below which {!converged} never holds, so a lucky first few morsels
    cannot stop the scan. Raises [Invalid_argument] unless [eps > 0]. *)

val observe : t -> rows:int -> contrib list -> unit
(** Account one morsel of [rows] raw rows; [contrib]s in the order the
    kinds were given to {!create}. *)

val converged : t -> bool
(** At least [min_morsels] morsels were observed and every aggregate's
    {e honest} (non-envelope) relative half-width sat at or below [eps]
    for the last two consecutive batches — the consecutive requirement
    counters the early-stopping bias of sequential interval checks. *)

val bands : t -> band list
val morsels_seen : t -> int
val rows_seen : t -> int

val fraction_rows : t -> float
(** Rows observed / total rows (1 for an empty file). *)

