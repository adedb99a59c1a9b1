cross-coupled CMOS latch with set pulse
.model nch nmos(vto=0.5 kp=120u lambda=0.06)
.model pch pmos(vto=-0.55 kp=50u lambda=0.06)
VDD vdd 0 1.8
VSET set 0 PULSE(0 1.8 2n 0.2n 0.2n 3n 100n)
* inverter A: input qb, output q
MPA q qb vdd vdd pch w=2u l=0.5u
MNA q qb 0 0 nch w=1u l=0.5u
* inverter B: input q, output qb
MPB qb q vdd vdd pch w=2u l=0.5u
MNB qb q 0 0 nch w=1u l=0.5u
CQ q 0 5f
CQB qb 0 5f
* set device pulls qb low, flipping q high
MSET qb set 0 0 nch w=2u l=0.5u
.tran 0.1n 20n
.end
