module luckystore/bench

go 1.24

require luckystore v0.0.0

replace luckystore => ../
