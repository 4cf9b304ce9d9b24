CREATE TABLE e (v1, v2);
INSERT INTO e VALUES (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (8, 9);
select v1, min(v2) from e group by v1;
select v1, min(v2) from e group by v1;
select v1, min(v2) from e group by v1;
select v1, min(v2) from e group by v1;
\stats
