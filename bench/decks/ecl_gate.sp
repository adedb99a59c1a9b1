single ECL gate with dc transfer sweep
.model qfast npn(is=1e-16 bf=100 tf=0.1n cje=0.5p cjc=0.3p vaf=60)
VEE vee 0 DC -5.2
VREF vref 0 DC -1.3
VIN in 0 PULSE(-1.7 -0.9 1n 0.3n 0.3n 4n 10n)
Q1 c1 in e qfast
Q2 c2 vref e qfast
RC1 0 c1 220
RC2 0 c2 220
RT e vee 780
QF 0 c2 out qfast
RF out vee 2k
CL out 0 100f
.dc VIN -2 -0.6 0.05
.tran 0.05n 20n
.end
