package repro.bench

import repro.SparkSpec
import repro.cluster.{Means, Median}

/** Shape of empirical Table 1 on [[Table1Workload]]. */
class Table1MedianBench extends SparkSpec {
  test("T1-median: relational k-median, all methods") {
    val t = Table1Workload.run(spark, Median)
    println(t.text)

    val byName = t.rows.map(r => r.method -> r).toMap
    val fast = byName("NEW-fast (Alg3+Alg2)")
    val slow = byName("NEW-slow (Alg3+Alg1)")
    // Table 1 shape: NEW methods are (1+eps)gamma-competitive...
    assert(fast.ratio <= 1.6, s"NEW-fast ratio ${fast.ratio}")
    assert(slow.ratio <= 1.6, s"NEW-slow ratio ${slow.ratio}")
    assert(byName("NEW-fast discrete").ratio <= 2.6)
    // ...and the randomized algorithm beats the deterministic one on time
    assert(fast.timeSec < slow.timeSec,
      s"fast=${fast.timeSec}s should beat slow=${slow.timeSec}s")
    assert(byName("uniform-sample [Chen 22]").ratio <= 4.0)
  }
}

class Table1MeansBench extends SparkSpec {
  test("T1-means: relational k-means, all methods incl. [23] and [43]") {
    val t = Table1Workload.run(spark, Means)
    println(t.text)

    val byName = t.rows.map(r => r.method -> r).toMap
    val fast = byName("NEW-fast (Alg3+Alg2)")
    val slow = byName("NEW-slow (Alg3+Alg1)")
    val rk = byName("rk-means [Curtin 23]")
    val pp = byName("rel-k-means++ [Moseley 21]")
    // Table 1 shape: NEW approximation dominates both baselines' bounds
    assert(fast.ratio <= 1.8, s"NEW-fast ratio ${fast.ratio}")
    assert(slow.ratio <= 1.8, s"NEW-slow ratio ${slow.ratio}")
    assert(rk.ratio <= 9.5, s"rk-means ratio ${rk.ratio} (bound gamma^2+4g√g+4g = 9)")
    assert(pp.ratio <= 6.0, s"rel-k-means++ ratio ${pp.ratio}")
    assert(fast.ratio <= rk.ratio + 0.25, "NEW should not lose to the grid coreset")
    assert(fast.timeSec < slow.timeSec)
    assert(byName("NEW-fast discrete").ratio <= 4.6)
  }
}
