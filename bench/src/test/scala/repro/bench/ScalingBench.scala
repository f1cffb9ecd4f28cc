package repro.bench

import repro.SparkSpec

/** Shape of T2-scaleN ([[ScalingN]]). */
class ScalingNBench extends SparkSpec {
  test("T2-scaleN: NEW-fast vs full-join as the join blows up") {
    val t = ScalingN.run(spark)
    println(t.text)
    // shape: the baseline's time grows with |q(D)|; NEW's stays ~flat in N
    val first = t.rows.head
    val last = t.rows.last
    assert(last.nJoin > 200 * first.nJoin, "sweep must actually blow the join up")
    val fastGrowth = last.fastSec / first.fastSec
    val baseGrowth = last.baseSec / first.baseSec
    assert(fastGrowth < 0.5 * baseGrowth,
      s"NEW growth $fastGrowth should be far below full-join growth $baseGrowth")
    assert(last.fastSec < last.baseSec * 1.5,
      s"at |q(D)|=${last.nJoin} NEW (${last.fastSec} s) should be at/past the crossover " +
        s"vs full-join (${last.baseSec} s)")
  }
}

/** Shape of T3-scaleK ([[ScalingK]]). */
class ScalingKBench extends SparkSpec {
  test("T3-scaleK: time and grid growth vs k") {
    val t = ScalingK.run(spark)
    println(t.text)
    // shape: rk-means' grid grows like k^d; NEW stays accurate at every k
    val grid2 = t.rows.head.rkGrid
    val grid8 = t.rows.last.rkGrid
    assert(grid8 > 8 * grid2, s"grid should grow super-linearly in k: $grid2 -> $grid8")
    t.rows.foreach { p =>
      assert(p.fastRatio <= 2.0, s"NEW-fast ratio ${p.fastRatio} at k=${p.k}")
    }
  }
}

/** Shape of T4-cyclic ([[Cyclic]]). */
class CyclicBench extends SparkSpec {
  test("T4-cyclic: triangle query end-to-end") {
    val t = Cyclic.run(spark)
    println(t.text)
    val r = t.rows.head
    assert(r.nJoin > 0)
    assert(r.fastCost <= 2.0 * r.baseCost, s"cyclic ratio ${r.ratio}")
  }
}
