package repro.join

/** Algorithm 3, leaf case (lines 2-8): the exact weighted 1-D projection
  * multiset H_u = pi_A(q(D)) with w(p) = |{t in q(D) : pi_A(t) = p}|, read
  * off the participation counts of a [[LocalJoinIndex]]. Never materializes
  * q(D). Callers that need several histograms build the index once and call
  * [[LocalJoinIndex.histogram]].
  */
object LeafHistogram {
  /** (value, weight) pairs sorted by value; weights sum to |q(D)|. */
  def histogram(q: AcyclicQuery, attr: String): Array[(Double, Double)] =
    LocalJoinIndex.build(q).histogram(attr)
}
